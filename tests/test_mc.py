import math
import os

import numpy as np
import pytest

import cascadeq.errors as errors
import cascadeq.mc as mc
from cascadeq import NetworkModel, ResourceLimitError, ValidationError, evaluate, evaluate_mc
from cascadeq.model import p_on
from helpers import random_model, sample_trajectories, traced_peak


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
    table = p_on(two_node, np.arange(4))
    counts: dict[int, int] = {}
    done = 0
    for index in range(3):
        size = min(mc.CHUNK_SIZE, runs - done)
        rng = np.random.default_rng((1, index))
        configs, _ = mc._sample_chunk(two_node, 2, size, rng, table)
        for value, count in zip(*np.unique(configs, return_counts=True)):
            counts[int(value)] = counts.get(int(value), 0) + int(count)
        done += size
    assert counts == baseline.counts


@pytest.mark.parametrize("seed, count", [
    *(pytest.param(seed, 777, id=str(seed)) for seed in range(3)),
    pytest.param(3, 2 * mc._BLOCK_ROWS + 5, id="3-ragged-sub-blocks")])
def test_sample_chunk_matches_plain_sampler(seed, count):
    # same draws, same per-node probabilities, same comparisons: equal
    # configurations, whether the probabilities come from the table or not,
    # and however the sub-blocks split the count
    rng = np.random.default_rng(seed)
    for k in range(1, 9):
        model = random_model(rng, k)
        horizon = int(rng.integers(0, 5))
        want = sample_trajectories(model, horizon, count, np.random.default_rng((seed, k)))
        for table in (p_on(model, np.arange(1 << k)), None):
            got, _ = mc._sample_chunk(model, horizon, count, np.random.default_rng((seed, k)),
                                      table)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("k, runs", [(2, 2 * mc.CHUNK_SIZE + 500), (17, mc.CHUNK_SIZE + 300),
                                     (1, 2 * mc.CHUNK_SIZE + 1)])
def test_counts_do_not_depend_on_the_worker_count(monkeypatch, k, runs):
    # the table path with a ragged last chunk, the np.unique path, one node
    model = random_model(np.random.default_rng(k), k)
    results = []
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        results.append(evaluate_mc(model, 3, runs, seed=(4, k)))
    one, three = results
    assert one == three
    assert (one.workers, three.workers) == (1, min(3, one.chunks))
    assert sum(one.counts.values()) == runs


def test_unique_path_counts_equal_the_table_paths():
    # 200 runs are fewer than an 8-node model's 256 configurations, so
    # evaluate_mc takes the per-step np.unique path
    model = random_model(np.random.default_rng(5), 8)
    result = evaluate_mc(model, 4, 200, seed=3)
    table = p_on(model, np.arange(256))
    configs, table_rows = mc._sample_chunk(model, 4, 200, np.random.default_rng((3, 0)), table)
    values, counts = np.unique(configs, return_counts=True)
    assert result.counts == {int(v): int(n) for v, n in zip(values, counts)}
    assert table_rows == 0
    # step t evaluates the distinct configurations that t steps of the same
    # stream leave
    distinct = [len(np.unique(mc._sample_chunk(model, t, 200, np.random.default_rng((3, 0)),
                                               table)[0]))
                for t in range(4)]
    assert distinct[0] == 1 and max(distinct) > 1
    assert result.p_on_rows == sum(distinct)


def test_table_path_evaluates_each_configuration_once(two_node):
    for horizon in (0, 1, 5):
        result = evaluate_mc(two_node, horizon, mc.CHUNK_SIZE + 7, seed=0)
        assert (result.chunks, result.p_on_rows) == (2, 4)


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


def _stub_sampling(monkeypatch) -> list:
    """Replace the chunk sampler by one that draws nothing; the returned list
    gets each sampled chunk's run count."""
    sampled = []

    def sample(model, horizon, count, rng, table):
        sampled.append(count)
        return np.zeros(1, dtype=np.int64), 0

    monkeypatch.setattr(mc, "_sample_chunk", sample)
    return sampled


def test_chunk_peak_covers_the_pool(monkeypatch):
    # the pool holds every chunk's future at once
    _stub_sampling(monkeypatch)
    model = NetworkModel.from_triggers([0.2], [0.5], {})
    evaluate_mc(model, 1, 8 * mc.CHUNK_SIZE, 0)  # one-time imports are not per chunk
    for chunks in (512, 1024):
        peak = traced_peak(lambda: evaluate_mc(model, 1, chunks * mc.CHUNK_SIZE, 0)) / chunks
        assert peak <= mc._CHUNK_PEAK <= 1.3 * peak, (chunks, peak)


def test_runs_past_the_chunk_budget_are_refused_before_the_pool(monkeypatch, two_node):
    sampled = _stub_sampling(monkeypatch)
    for runs in (1 << 40, 2 ** 63, 10 ** 400):
        with pytest.raises(ResourceLimitError):
            evaluate_mc(two_node, 1, runs, 0)
    assert sampled == []
    monkeypatch.setattr(errors, "DENSE_BYTE_BUDGET", 8 * mc._CHUNK_PEAK)
    assert evaluate_mc(two_node, 1, 8 * mc.CHUNK_SIZE, 0).chunks == 8
    assert sampled == [mc.CHUNK_SIZE] * 8
    with pytest.raises(ResourceLimitError):
        evaluate_mc(two_node, 1, 8 * mc.CHUNK_SIZE + 1, 0)
    assert len(sampled) == 8
