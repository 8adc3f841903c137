import contextlib
import math
import signal
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadeq import (
    GroverSpec,
    LowDepthTrace,
    NetworkModel,
    NoiseSpec,
    ParseError,
    ResourceLimitError,
    ValidationError,
    evaluate,
    fit_noise_model,
    fit_sine,
    max_depth,
    min_shots,
    predict,
    run_schedule,
    trace_from_text,
)
from cascadeq import lowdepth
from cascadeq.errors import FitDivergedError
from cascadeq.lowdepth import _fit, _levenberg_marquardt, _residuals

import helpers
from helpers import trace_to_text


def read_trace(fixtures_dir, name):
    return trace_from_text((fixtures_dir / name).read_text())


def test_predict_is_sine_at_zero_rate():
    assert predict(0.767, 0, 0.0, 0.9) == pytest.approx(0.140, abs=5e-4)
    assert predict(0.767, 0, 0.0, 0.9) == math.sin(0.767 / 2.0) ** 2
    assert predict(1.159, 1, 0.0, 0.0) == math.sin(3 * 1.159 / 2.0) ** 2
    assert predict(1.159, 1, 0.0, 0.0) == pytest.approx(0.9721, abs=1e-3)


def test_predict_asymptote():
    assert predict(1.3, 500, 0.5, 0.37) == pytest.approx(0.37, abs=1e-12)


def test_predict_array_powers():
    values = predict(1.0, np.array([0.0, 0.5, 1.0]), 0.2, 0.5)
    assert values.shape == (3,)
    assert values[0] == pytest.approx(math.sin(0.5) ** 2)


def test_predict_validates_f():
    with pytest.raises(ValidationError):
        predict(1.0, 1, 0.0, 1.5)


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(0.0, 2 * math.pi), power=st.integers(0, 12),
       f=st.floats(0.0, 1.0), a=st.floats(-0.5, 3.0))
def test_predict_ambiguity_invariance(theta, power, f, a):
    twin = 2.0 * math.pi - theta
    assert predict(theta, power, a, f) == pytest.approx(
        predict(twin, power, a, f), abs=1e-9)


def test_run_schedule_statistics(two_node):
    spec = GroverSpec.from_config("00")
    trace = run_schedule(two_node, 3, spec, range(9), 30, seed=6)
    p_exact = evaluate(two_node, 3)[3].probability(0)
    theta = 2.0 * math.asin(math.sqrt(p_exact))
    for power, marked in zip(trace.schedule, trace.marked):
        p = math.sin((2 * power + 1) * theta / 2.0) ** 2
        bound = 4.0 * math.sqrt(max(p * (1 - p), 1e-12) * 30) + 1.0
        assert abs(marked - 30 * p) <= bound


def test_run_schedule_seeded_trace_is_pinned(two_node):
    # literals, so a change to how p is summed cannot move a seeded trace unseen
    trace = run_schedule(two_node, 3, GroverSpec.from_config("11"), range(9), 200,
                         noise=NoiseSpec(0.05), seed=6)
    assert trace.marked == (70, 178, 11, 154, 88, 44, 156, 17, 123)


def test_run_schedule_power_zero_estimates_probability(one_node):
    spec = GroverSpec.from_config("1")
    trace = run_schedule(one_node, 2, spec, [0], 40_000, seed=3)
    assert trace.marked[0] / 40_000 == pytest.approx(0.48, abs=0.01)


def test_run_schedule_determinism_and_common_powers(one_node):
    spec = GroverSpec.from_config("1")
    noise = NoiseSpec(0.4)
    a = run_schedule(one_node, 3, spec, range(5), 500, noise=noise, seed=12)
    b = run_schedule(one_node, 3, spec, range(5), 500, noise=noise, seed=12)
    assert a == b
    partial = run_schedule(one_node, 3, spec, [1, 4], 500, noise=noise, seed=12)
    assert partial.marked == (a.marked[1], a.marked[4])


def test_noisy_schedule_recovers_single_step_probability(one_node):
    # synthetic channel at decay rate ~0.977 around the p = 0.3 oscillation
    spec = GroverSpec.from_config("1")
    noise = NoiseSpec.from_decay_rate(0.977)
    trace = run_schedule(one_node, 1, spec, range(9), 2000, noise=noise, seed=5)
    fit = fit_noise_model(trace)
    assert fit.probability == pytest.approx(0.3, abs=0.05)


def test_fully_scrambled_schedule_hits_one_in_2_to_the_marked_nodes(two_node):
    # a scrambled shot is uniform over the register, so it is marked with
    # probability 2^-m for m marked nodes, not 1/2
    shots = 20_000
    for pattern, fraction in (("11", 0.25), ("1*", 0.5)):
        spec = GroverSpec.from_config(pattern)
        trace = run_schedule(two_node, 3, spec, range(1, 9), shots, noise=NoiseSpec(1.0),
                             seed=9)
        sigma = math.sqrt(shots * fraction * (1.0 - fraction))
        for count in trace.marked:
            assert abs(count - fraction * shots) <= 5.0 * sigma


def test_run_schedule_counts_2_to_the_53_shots_exactly():
    # every shot of a p = 1 model is marked, and 2^53 is the largest count a
    # trace holds exactly
    model = NetworkModel.from_triggers([1.0], [0.0], {})
    spec = GroverSpec.from_config("1")
    shots = 1 << 53
    trace = run_schedule(model, 1, spec, [0, 1, 2], shots)
    assert trace.marked == trace.shots == (shots,) * 3
    with pytest.raises(ResourceLimitError):
        run_schedule(model, 1, spec, [0, 1], [3, shots + 1])


def test_run_schedule_refuses_a_shot_count_of_5000_digits(two_node):
    # the refusal must not format the count, which has more digits than
    # Python converts to a decimal string
    spec = GroverSpec.from_config("11")
    for shots in (10 ** 5000, [3, 10 ** 5000]):
        with pytest.raises(ResourceLimitError):
            run_schedule(two_node, 3, spec, [0, 1], shots)


def test_run_schedule_validation(one_node):
    spec = GroverSpec.from_config("1")
    with pytest.raises(ValidationError):
        run_schedule(one_node, 1, spec, [], 10)
    with pytest.raises(ValidationError):
        run_schedule(one_node, 1, spec, [0], 0)
    with pytest.raises(ValidationError):
        run_schedule(one_node, 1, spec, [0, 0], 10)
    with pytest.raises(ValidationError):
        run_schedule(one_node, 1, spec, [0], [10, 20])


def test_run_schedule_takes_any_integer_shot_count(two_node):
    spec = GroverSpec.from_config("11")
    trace = run_schedule(two_node, 3, spec, range(5), 100, seed=4)
    for shots in (np.int64(100), [np.int64(100)] * 5, np.full(5, 100)):
        assert run_schedule(two_node, 3, spec, range(5), shots, seed=4) == trace
    for shots in (100.0, "100", [100, 2.5, 100, 100, 100], None):
        with pytest.raises(ValidationError) as info:
            run_schedule(two_node, 3, spec, range(5), shots)
        assert info.value.code == "invalid-shots", shots


def test_trace_validation():
    with pytest.raises(ValidationError):
        LowDepthTrace((0, 1), (30, 30), (31, 0))
    with pytest.raises(ValidationError):
        LowDepthTrace((0, 0), (30, 30), (1, 1))
    with pytest.raises(ValidationError):
        LowDepthTrace((), (), ())


def test_trace_refuses_fractional_powers_and_shots(one_node):
    # they are refused, not truncated to integers
    with pytest.raises(ValidationError) as info:
        LowDepthTrace([0, 1.9], [10, 10], [3, 4])
    assert info.value.code == "invalid-schedule"
    with pytest.raises(ValidationError) as info:
        LowDepthTrace([0, 1], [10.8, 10], [3, 4])
    assert info.value.code == "invalid-shots"
    with pytest.raises(ValidationError) as info:
        run_schedule(one_node, 1, GroverSpec.from_config("1"), [0, 1.5], 10)
    assert info.value.code == "invalid-schedule"
    trace = LowDepthTrace(np.arange(3), [np.int64(10)] * 3, [1, 2, 3])
    assert trace.schedule == (0, 1, 2) and trace.shots == (10, 10, 10)
    assert all(type(x) is int for x in trace.schedule + trace.shots)


def test_trace_round_trip():
    trace = LowDepthTrace((0, 1, 2), (30, 30, 30), (5, 29, 26))
    assert trace_from_text(trace_to_text(trace)) == trace
    exact = LowDepthTrace((0, 1), (100, 100), (14.5, 97.25))
    assert trace_from_text(trace_to_text(exact)) == exact


def test_trace_parse_errors():
    with pytest.raises(ParseError):
        trace_from_text("bogus\n0,30,5\n")
    with pytest.raises(ParseError):
        trace_from_text("l,shots,marked\n0,30\n")
    with pytest.raises(ParseError):
        trace_from_text("l,shots,marked\n0,30,x\n")
    with pytest.raises(ParseError):
        trace_from_text("l,shots,marked\n0,30,31\n")


def test_sine_fit_recovers_exact_angle():
    theta = 1.0
    shots = 30
    marked = [shots * math.sin((2 * l + 1) * theta / 2.0) ** 2 for l in range(9)]
    trace = LowDepthTrace(tuple(range(9)), (shots,) * 9, tuple(marked))
    fit = fit_sine(trace)
    assert fit.theta == pytest.approx(theta, abs=1e-6)
    assert fit.loss < 1e-12
    assert fit.a == 0.0


def test_sine_fit_published_rows(fixtures_dir):
    expected = {"00": 0.144, "01": 0.308, "10": 0.219, "11": 0.330}
    for config, prob in expected.items():
        trace = read_trace(fixtures_dir, f"trace_2node_c{config}.csv")
        fit = fit_sine(trace)
        assert fit.probability == pytest.approx(prob, abs=0.01)
        assert 0.0 <= fit.theta <= math.pi


def test_noise_fit_published_rows(fixtures_dir):
    fit = fit_noise_model(read_trace(fixtures_dir, "trace_1node_noisy_t3.csv"))
    assert fit.probability == pytest.approx(0.596, abs=0.02)
    assert fit.a == pytest.approx(0.977, abs=0.15)
    fit = fit_noise_model(read_trace(fixtures_dir, "trace_1node_device_t4.csv"))
    assert fit.probability == pytest.approx(0.664, abs=0.02)
    fit = fit_noise_model(read_trace(fixtures_dir, "trace_1node_device_t1.csv"))
    assert fit.probability == pytest.approx(0.300, abs=0.01)
    assert fit.a < 0.0  # near-noiseless data fits a slightly negative rate


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.3, 2.8), a=st.floats(0.0, 0.5), f=st.floats(0.2, 0.8))
@example(theta=1.23, a=0.4, f=0.37)
def test_noise_fit_inverts_exact_curve(theta, a, f):
    shots = 100_000
    marked = [shots * predict(theta, l, a, f) for l in range(9)]
    trace = LowDepthTrace(tuple(range(9)), (shots,) * 9, tuple(marked))
    fit = fit_noise_model(trace)
    assert fit.converged
    assert fit.theta == pytest.approx(theta, abs=1e-4)
    assert fit.a == pytest.approx(a, abs=1e-4)
    if a >= 0.05:  # f weighs 1 - e^{-8a} in the curve; at a = 0 it has no effect
        assert fit.f == pytest.approx(f, abs=1e-4)


def test_noise_fit_fix_f(fixtures_dir):
    trace = read_trace(fixtures_dir, "trace_1node_noisy_t3.csv")
    fit = fit_noise_model(trace, fix_f=0.5)
    assert fit.f == 0.5
    assert fit.probability == pytest.approx(0.596, abs=0.02)
    with pytest.raises(ValidationError):
        fit_noise_model(trace, fix_f=1.2)


def test_fit_theta_always_folded(fixtures_dir):
    for name in ("trace_2node_c01.csv", "trace_1node_noisy_t2.csv"):
        trace = read_trace(fixtures_dir, name)
        for fit in (fit_sine(trace), fit_noise_model(trace)):
            assert 0.0 <= fit.theta <= math.pi
            assert fit.probability == pytest.approx(math.sin(fit.theta / 2.0) ** 2)
            assert 0.0 <= fit.f <= 1.0


def test_degenerate_all_or_nothing_trace():
    # theta = 0 is an admissible boundary solution; the landscape is quartic
    # there, so the descent parks nearby with negligible loss
    trace = LowDepthTrace((0, 1, 2), (10, 10, 10), (0, 0, 0))
    fit = fit_sine(trace)
    assert fit.theta == pytest.approx(0.0, abs=1e-2)
    assert fit.loss < 1e-9
    assert fit.converged


def test_loss_non_increasing_with_iteration_budget(fixtures_dir, monkeypatch):
    trace = read_trace(fixtures_dir, "trace_1node_noisy_t2.csv")
    losses = []
    for budget in [0, 5, 25, 100, 400]:
        monkeypatch.setattr(lowdepth, "_MAX_ITERS", budget)
        losses.append(fit_noise_model(trace).loss)
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-15


def test_fit_diverged_on_non_finite_data():
    with pytest.raises(FitDivergedError):
        _fit(np.array([math.nan, math.nan]), np.array([0.0, 1.0]),
             np.array([[0.5], [1.0]]), free_f=False, sine_only=True)


def test_gradient_matches_finite_differences():
    # the Jacobian the solver uses, against central differences of its residuals
    fractions = np.array([0.62, 0.42, 0.58, 0.47, 0.52])
    eps = 1e-7
    for sine_only, free_f, params in ((True, False, [1.7]), (False, True, [1.7, 0.9, 0.5]),
                                      (False, False, [1.7, 0.9, 0.5])):
        residuals = _residuals(fractions[None, :], np.arange(5.0), sine_only, free_f)
        base = np.array([params])
        analytic = residuals(base)[1][0]
        numeric = np.stack([
            (residuals(base + eps * unit)[0][0] - residuals(base - eps * unit)[0][0]) / (2 * eps)
            for unit in np.eye(len(params))
        ], axis=-1)
        if not (sine_only or free_f):
            numeric[:, 2] = 0.0  # a pinned f has a zero column, so it never moves
        assert np.max(np.abs(numeric - analytic)) < 1e-6


def test_fixture_fits_converge(fixtures_dir):
    for path in sorted(fixtures_dir.glob("trace_*.csv")):
        trace = trace_from_text(path.read_text())
        fits = [(fit_sine(trace), 4), (fit_noise_model(trace), 12),
                (fit_noise_model(trace, fix_f=0.5), 12)]
        for fit, n_starts in fits:
            assert fit.converged, path.name
            assert 0 < fit.iterations <= lowdepth._MAX_ITERS
            assert fit.n_starts == n_starts


def test_fit_reports_exhausted_budget(fixtures_dir, monkeypatch):
    trace = read_trace(fixtures_dir, "trace_1node_noisy_t2.csv")
    monkeypatch.setattr(lowdepth, "_MAX_ITERS", 1)
    fit = fit_noise_model(trace)
    assert not fit.converged
    assert fit.iterations == 1


def test_fit_reports_the_first_start_to_settle_on_the_optimum(monkeypatch):
    # on this dense 0..1000 trace the start with the lowest loss takes 95 of
    # its 100 iterations, while others reach the same optimum in 18-47
    ells = np.arange(1001)
    marked = np.random.default_rng(5).binomial(200, predict(0.9, ells, 0.004, 0.5))
    trace = LowDepthTrace(tuple(range(1001)), (200,) * 1001, tuple(int(m) for m in marked))
    runs = []

    def recorded(*args):
        runs.append(_levenberg_marquardt(*args))
        return runs[-1]

    monkeypatch.setattr(lowdepth, "_levenberg_marquardt", recorded)
    fit = fit_noise_model(trace)
    params, losses, iterations, live = runs[0]
    tied = losses - losses.min() <= lowdepth._TOL * losses.min()
    assert iterations[np.argmin(losses)] == 95
    assert fit.converged and fit.iterations == iterations[tied & ~live].min() == 18
    # the parameters stay those of the lowest loss
    assert fit.loss == pytest.approx(losses.min(), rel=1e-12)
    assert fit.theta == pytest.approx(abs(params[np.argmin(losses), 0]), rel=1e-12)


def test_growing_trace_keeps_rate_bounded():
    # an amplitude growing with l pulls the rate negative; e^{-a l} must stay finite
    trace = LowDepthTrace(tuple(range(13)), (1000,) * 13, tuple(
        round(1000 * (0.5 + 0.5 * math.exp(0.3 * (l - 12)) * math.cos(1.1 * l)))
        for l in range(13)))
    far = LowDepthTrace((0, 1, 2, 800), (100,) * 4, (30, 60, 20, 99))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fits = [fit_noise_model(trace), fit_noise_model(trace, fix_f=0.5)]
        far_fit = fit_noise_model(far)
    for fit in fits:
        assert math.isfinite(fit.loss)
        assert -1.0 <= fit.a < 0.0
    assert math.isfinite(far_fit.loss)
    assert far_fit.a >= -100.0 / 800


def _growing_traces():
    """The two traces of test_growing_trace_keeps_rate_bounded."""
    return [LowDepthTrace(tuple(range(13)), (1000,) * 13, tuple(
        round(1000 * (0.5 + 0.5 * math.exp(0.3 * (l - 12)) * math.cos(1.1 * l)))
        for l in range(13))), LowDepthTrace((0, 1, 2, 800), (100,) * 4, (30, 60, 20, 99))]


def _oracle_fit(trace, kind):
    """The multi-start fit the profiled grid replaced: 39 angles, and for the
    damped model each at a in {0, 0.5, 2} and f = 0.5 (or the pinned f)."""
    ells = np.asarray(trace.schedule, dtype=float)
    fractions = np.asarray(trace.fractions)
    thetas = [math.pi * i / 40 for i in range(1, 40)]
    if kind == "sine":
        return _fit(fractions, ells, np.array(thetas)[:, None], free_f=False, sine_only=True)
    starts = np.array([(theta, a, 0.5) for theta in thetas for a in (0.0, 0.5, 2.0)])
    return _fit(fractions, ells, starts, free_f=kind == "free", sine_only=False)


def test_profiled_grid_fits_are_no_worse_than_the_multi_start_oracle(fixtures_dir):
    traces = [read_trace(fixtures_dir, path.name)
              for path in sorted(fixtures_dir.glob("trace_*.csv"))]
    traces += _growing_traces()
    rng = np.random.default_rng(18)
    for _ in range(40):
        ells = np.arange(int(rng.integers(4, 21)) + 1)
        expected = predict(rng.uniform(0.2, 2.9), ells, rng.uniform(0.0, 0.5),
                           rng.uniform(0.2, 0.8))
        traces.append(LowDepthTrace(tuple(ells), (500,) * len(ells),
                                    tuple(rng.binomial(500, expected))))
    fits = {"sine": fit_sine, "free": fit_noise_model,
            "pinned": lambda trace: fit_noise_model(trace, fix_f=0.5)}
    worse = []
    for i, trace in enumerate(traces):
        for kind, fit in fits.items():
            new, old = fit(trace), _oracle_fit(trace, kind)
            if new.loss > old.loss * (1.0 + 1e-9):
                worse.append(f"trace {i} {kind}: loss {new.loss!r} > oracle {old.loss!r}")
    assert not worse, "\n".join(worse)


def _stacked_residuals(fractions, ells, sine_only, free_f):
    """``lowdepth._residuals`` as first written, one fresh array per term."""
    odd = 2.0 * ells + 1.0

    def residuals(params):
        theta = params[:, 0:1]
        signal = np.sin(odd * theta / 2.0) ** 2
        dsignal = (odd / 2.0) * np.sin(odd * theta)
        if sine_only:
            return signal - fractions, dsignal[:, :, None]
        a, f = params[:, 1:2], params[:, 2:3]
        decay = np.exp(-a * ells)
        df = 1.0 - decay if free_f else np.zeros_like(decay)
        jac = np.stack([decay * dsignal, -ells * decay * (signal - f), df], axis=-1)
        return decay * (signal - f) + f - fractions, jac

    return residuals


def _gathering_solver(residuals, starts, lower, upper, max_iters, tol):
    """The solver loop before it held the live starts compacted: each
    iteration gathers the live rows by index and scatters accepted steps
    back into the full arrays."""
    params = starts.astype(float)
    res, jac = residuals(params)
    losses = (res * res).sum(axis=1)
    damping = np.full(len(params), 1e-3)
    live = np.isfinite(losses)
    eye = np.eye(params.shape[1])
    iterations = np.zeros(len(params), dtype=int)
    for _ in range(max_iters):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        iterations[idx] += 1
        jtr = np.einsum("spi,sp->si", jac[idx], res[idx])
        pinned = (((params[idx] <= lower) & (jtr > 0.0))
                  | ((params[idx] >= upper) & (jtr < 0.0)))
        j = np.where(pinned[:, None, :], 0.0, jac[idx])
        jtr[pinned] = 0.0
        jtj = np.einsum("spi,spj->sij", j, j) + damping[idx, None, None] * eye
        step = lowdepth._solve_each(jtj, -jtr)
        cand = np.clip(params[idx] + step, lower, upper)
        cand_res, cand_jac = residuals(cand)
        cand_loss = (cand_res * cand_res).sum(axis=1)
        better = cand_loss < losses[idx]
        took = idx[better]
        settled = ((losses[took] - cand_loss[better] <= tol * losses[took])
                   | (cand_loss[better] <= tol * tol * res.shape[1]))
        params[took], res[took], jac[took] = cand[better], cand_res[better], cand_jac[better]
        losses[took] = cand_loss[better]
        damping[took] /= 3.0
        damping[idx[~better]] *= 4.0
        live[took[settled]] = False
        live &= damping <= 1e12
    return params, losses, iterations, live


def test_solver_matches_the_index_gathering_loop(fixtures_dir, monkeypatch):
    traces = [read_trace(fixtures_dir, path.name)
              for path in sorted(fixtures_dir.glob("trace_*.csv"))]
    traces += _growing_traces()
    rng = np.random.default_rng(24)
    powers = np.array([1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32])
    for dense in [True, False] * 8:
        ells = (np.arange(int(rng.integers(4, 21)) + 1) if dense else
                np.r_[0, np.sort(rng.choice(powers, int(rng.integers(3, 9)), replace=False))])
        expected = predict(rng.uniform(0.2, 2.9), ells, rng.uniform(0.0, 0.5),
                           rng.uniform(0.2, 0.8))
        traces.append(LowDepthTrace(tuple(ells), (500,) * len(ells),
                                    tuple(rng.binomial(500, expected))))
    calls = []

    def recorded(*args):
        out = _levenberg_marquardt(*args)
        calls.append((args, [value.copy() for value in out]))  # _fit folds theta in place
        return out

    monkeypatch.setattr(lowdepth, "_levenberg_marquardt", recorded)
    for trace in traces:
        calls.clear()
        fit_sine(trace), fit_noise_model(trace), fit_noise_model(trace, fix_f=0.5)
        fractions = np.asarray(trace.fractions)[None, :]
        ells = np.asarray(trace.schedule, dtype=float)
        kinds = [(True, False), (False, True), (False, False)]  # (sine_only, free_f)
        assert len(calls) == len(kinds)
        for (args, got), kind in zip(calls, kinds):
            residuals = _stacked_residuals(fractions, ells, *kind)
            # the same arithmetic on the same batches: equal to the last bit
            for value, reference in zip(got, _gathering_solver(residuals, *args[1:])):
                assert np.array_equal(value, reference, equal_nan=True)


@pytest.mark.parametrize("schedule, shots, marked, fix_f", [
    ((0, 2, 5, 8), 100, (71, 49, 35, 41), None),
    ((0, 2, 12, 32), 500, (259, 200, 119, 136), None),
    ((0, 4, 12, 16), 500, (366, 102, 154, 166), 0.5),
    (tuple(range(20)), 500, (261, 237, 237, 243, 214, 205, 211, 196, 212, 176, 215, 193,
                             209, 180, 187, 166, 204, 180, 183, 169), 0.5),
])
def test_damped_fit_needs_every_negative_rate_start(schedule, shots, marked, fix_f):
    # seeded random schedules on which refining only the negative rate with
    # the lowest grid cell, and the nine rates >= 0, misses a lower a < 0
    # optimum by 1.02x (the dense one) to 335x
    trace = LowDepthTrace(schedule, (shots,) * len(schedule), marked)
    fit = fit_noise_model(trace, fix_f)
    assert fit.n_starts == 12 and fit.a < 0.0
    ells = np.asarray(schedule, dtype=float)
    fractions = np.asarray(trace.fractions)
    lo = lowdepth._min_rate(ells)
    rates = np.array([lo, lo / 4.0, lo / 16.0, *lowdepth._RATES])
    thetas, losses, fs = lowdepth._profiled_grid(fractions, ells, rates, fix_f)
    best = np.argmin(losses, axis=0)
    columns = np.r_[np.argmin(losses[best[:3], [0, 1, 2]]), np.arange(3, len(rates))]
    starts = np.stack([thetas[best[columns]], rates[columns], fs[best[columns], columns]],
                      axis=-1)
    fewer = _fit(fractions, ells, starts, free_f=fix_f is None, sine_only=False)
    assert fewer.loss > 1.01 * fit.loss


def _dense_trace(top):
    ells = np.arange(top + 1)
    marked = np.random.default_rng(5).binomial(200, predict(0.9, ells, 0.004, 0.5))
    return LowDepthTrace(tuple(ells), (200,) * len(ells), tuple(marked))


def test_long_schedule_fits_in_bounded_memory():
    # the whole grid up to power 1000 would be 16,008 angles x 1001 powers x
    # 12 rates; in blocks it stays far below that
    trace = _dense_trace(1000)
    fits = []
    peak = helpers.traced_peak(lambda: fits.append(fit_noise_model(trace)))
    assert peak <= 64 << 20
    assert fits[0].converged
    assert fits[0].a == pytest.approx(0.004, abs=1e-3)
    # a sparse schedule reaching far has a capped angle count
    far = LowDepthTrace((0, 1, 2, 10**12), (100,) * 4, (30, 60, 20, 99))
    assert helpers.traced_peak(lambda: fit_noise_model(far)) <= 64 << 20


def test_grid_block_size_does_not_change_the_fit(monkeypatch):
    trace = _dense_trace(100)
    default = [fit_sine(trace), fit_noise_model(trace), fit_noise_model(trace, fix_f=0.5)]
    monkeypatch.setattr(lowdepth, "_GRID_BLOCK", 3 * len(trace.schedule) + 1)
    assert [fit_sine(trace), fit_noise_model(trace),
            fit_noise_model(trace, fix_f=0.5)] == default


def test_singular_system_is_a_rejected_step():
    # the first start's J^T J + lambda I rounds to a singular matrix, which
    # fails a batched solve; it takes no step, and the second start still fits
    def residuals(params):
        scale = np.where(params[:, :1] > 10.0, 1e20, 1.0)
        res = scale * (params.sum(axis=1, keepdims=True) - 1.0)
        return res, np.repeat(scale[:, :, None], 2, axis=2)

    starts = np.array([[20.0, 20.0], [-1.0, -1.0]])
    unbounded = np.full(2, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params, losses, iterations, live = _levenberg_marquardt(
            residuals, starts, -unbounded, unbounded, 100, 1e-10)
    assert params[0].tolist() == [20.0, 20.0]
    assert losses[0] == (residuals(starts[:1])[0] ** 2).sum()
    assert not live[0] and 0 < iterations[0] < 100
    assert losses[1] < 1e-20


def test_min_shots_examples():
    assert min_shots(1.0, 3, 0.5) == 65
    assert min_shots(0.0, 5, 0.5) == 1
    assert min_shots(0.977, 8, 0.5) > 2000
    with pytest.raises(ValidationError):
        min_shots(1.0, 3, 0.0)


def test_max_depth_examples():
    assert max_depth(1.0, 65, 0.5) == 3
    # direct evaluation of floor((1/2a) ln(pi N / (2 f (1-f)))) = floor(18.93)
    assert max_depth(0.286, 8000, 0.5) == 18
    assert max_depth(1.0, 1, 0.5) == 0
    with pytest.raises(ValidationError):
        max_depth(0.0, 100, 0.5)
    with pytest.raises(ValidationError):
        max_depth(1.0, 100, 1.0)


@contextlib.contextmanager
def _within_one_second():
    """Raise TimeoutError in the block if it runs for more than a second."""
    def expire(signum, frame):
        raise TimeoutError("still running after 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("bound, args, error, code", [
    # answers past 2^53: the closed form's +-1 steps would walk float gaps
    (min_shots, (1.0, 30, 0.5), ResourceLimitError, "resource-limit"),
    (max_depth, (1e-30, 10, 0.5), ResourceLimitError, "resource-limit"),
    # ... or overflow a float
    (min_shots, (1.0, 400, 0.5), ResourceLimitError, "resource-limit"),
    (max_depth, (5e-324, 10, 0.5), ResourceLimitError, "resource-limit"),
    (max_depth, (0.5, 10 ** 400, 0.5), ResourceLimitError, "resource-limit"),
    (max_depth, (0.5, 2 ** 53 + 1, 0.5), ResourceLimitError, "resource-limit"),
    (min_shots, (math.nan, 3, 0.5), ValidationError, "out-of-range"),
    (min_shots, (math.inf, 3, 0.5), ValidationError, "out-of-range"),
    (max_depth, (math.nan, 100, 0.5), ValidationError, "out-of-range"),
    (max_depth, (math.inf, 100, 0.5), ValidationError, "out-of-range"),
    # a power past 2^53, before a * power overflows a float
    (min_shots, (1.0, 10 ** 400, 0.5), ResourceLimitError, "resource-limit"),
    (min_shots, (0.0, 10 ** 400, 0.5), ResourceLimitError, "resource-limit"),
    (min_shots, (0.0, 2 ** 53 + 1, 0.5), ResourceLimitError, "resource-limit"),
    # a shot count of more digits than Python converts to a decimal string
    (max_depth, (0.5, 10 ** 5000, 0.5), ResourceLimitError, "resource-limit"),
])
def test_bounds_refuse_promptly(bound, args, error, code):
    with _within_one_second(), pytest.raises(error) as err:
        bound(*args)
    assert err.value.code == code


def test_bounds_answer_up_to_two_to_the_53():
    with _within_one_second():
        shots = min_shots(1.0, 18, 0.5)  # about 6.9e14
        depth = max_depth(1e-14, 10, 0.5)  # about 2.1e14
        assert max_depth(0.5, 2 ** 53, 0.5) == 38
        # a signal that grows with the power needs one shot, however deep
        assert min_shots(-1.0, 1000, 0.5) == 1
        assert min_shots(0.0, 2 ** 53, 0.5) == 1
    assert 2 ** 49 < shots < 2 ** 53 and 2 ** 47 < depth < 2 ** 53
    assert lowdepth._signal_detectable(1.0, 18, shots, 0.5)
    assert not lowdepth._signal_detectable(1.0, 18, shots - 1, 0.5)
    assert lowdepth._signal_detectable(1e-14, depth, 10, 0.5)
    assert not lowdepth._signal_detectable(1e-14, depth + 1, 10, 0.5)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.05, 2.0), power=st.integers(0, 10),
       f=st.floats(0.05, 0.95))
@example(a=2.0, power=10, f=0.5)  # about 3.7e16 shots: refused
def test_bounds_mutually_consistent(a, power, f):
    try:
        shots = min_shots(a, power, f)
    except ResourceLimitError:
        # refused only where even 2^53 shots would not show the signal
        # (a * power above about 19 at f = 1/2)
        assert not lowdepth._signal_detectable(a, power, 2 ** 53, f)
        return
    assert max_depth(a, shots, f) >= power
