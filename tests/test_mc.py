import math

import numpy as np
import pytest

import cascadeq.mc as mc
from cascadeq import NetworkModel, ResourceLimitError, ValidationError, evaluate, evaluate_mc
from helpers import random_model, sample_trajectories


def test_deterministic_failure():
    model = NetworkModel.from_triggers([1.0], [0.0], {})
    for horizon in (1, 3, 7):
        assert evaluate_mc(model, horizon, 100, seed=0).counts == {1: 100}


def test_all_zero_probabilities_stay_good():
    model = NetworkModel.from_triggers([0.0, 0.0], [0.0, 0.0], {})
    assert evaluate_mc(model, 5, 100, seed=0).counts == {0: 100}


def test_counts_sum_to_runs(two_node):
    result = evaluate_mc(two_node, 3, 12345, seed=9)
    assert sum(result.counts.values()) == 12345
    assert sum(result.estimates.values()) == pytest.approx(1.0, abs=1e-12)


def test_single_run_single_count(two_node):
    result = evaluate_mc(two_node, 3, 1, seed=2)
    assert sorted(result.counts.values()) == [1]


def test_determinism_under_seed(two_node):
    a = evaluate_mc(two_node, 3, 200_000, seed=42)
    b = evaluate_mc(two_node, 3, 200_000, seed=42)
    assert a == b
    c = evaluate_mc(two_node, 3, 200_000, seed=43)
    assert a != c


def test_worker_equivalent_chunk_streams(two_node):
    # a worker pool that owns chunks (seed, index) must reproduce the serial result
    runs = mc.CHUNK_SIZE * 2 + 500
    baseline = evaluate_mc(two_node, 2, runs, seed=1)
    counts: dict[int, int] = {}
    done = 0
    for index in range(3):
        size = min(mc.CHUNK_SIZE, runs - done)
        rng = np.random.default_rng((1, index))
        configs = mc._sample_chunk(two_node, 2, size, rng)
        for value, count in zip(*np.unique(configs, return_counts=True)):
            counts[int(value)] = counts.get(int(value), 0) + int(count)
        done += size
    assert counts == baseline.counts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_chunk_matches_plain_sampler(seed):
    # same draws, same per-node probabilities, same comparisons: equal configurations
    rng = np.random.default_rng(seed)
    for k in range(1, 7):
        model = random_model(rng, k)
        horizon = int(rng.integers(0, 5))
        got = mc._sample_chunk(model, horizon, 777, np.random.default_rng((seed, k)))
        want = sample_trajectories(model, horizon, 777, np.random.default_rng((seed, k)))
        assert np.array_equal(got, want)


def test_estimates_close_to_exact_random_models():
    rng = np.random.default_rng(11)
    runs = 20_000
    for _ in range(5):
        k = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 5))
        model = random_model(rng, k)
        exact_table = evaluate(model, horizon)[horizon]
        result = evaluate_mc(model, horizon, runs, seed=int(rng.integers(0, 2**31)))
        for config in range(1 << k):
            p = exact_table.probability(config)
            bound = 5.0 * math.sqrt(max(p * (1 - p), 1e-12) / runs) + 1e-9
            assert abs(result.estimates.get(config, 0.0) - p) <= bound


def test_spread_shrinks_with_runs(two_node):
    def pooled_spread(runs: int) -> float:
        per_config = {c: [] for c in range(4)}
        for rep in range(20):
            result = evaluate_mc(two_node, 3, runs, seed=(123, rep))
            for c in range(4):
                per_config[c].append(result.estimates.get(c, 0.0))
        return float(np.mean([np.std(v) for v in per_config.values()]))

    ratio = pooled_spread(1_000) / pooled_spread(100_000)
    assert 7.0 <= ratio <= 14.0


def test_validation(two_node):
    with pytest.raises(ValidationError):
        evaluate_mc(two_node, 3, 0, seed=0)
    with pytest.raises(ValidationError):
        evaluate_mc(two_node, -1, 10, seed=0)


def test_refuses_more_nodes_than_an_int64_configuration_holds():
    def chain(k):
        return NetworkModel.from_triggers([0.1] * k, [0.5] * k, {(1, k): 0.3})

    with pytest.raises(ResourceLimitError):
        evaluate_mc(chain(64), 1, 5, seed=0)
    result = evaluate_mc(chain(63), 2, 5, seed=0)
    assert sum(result.counts.values()) == 5
    assert all(0 <= c < 1 << 63 for c in result.counts)
