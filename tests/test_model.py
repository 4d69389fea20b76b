import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import daglm
from daglm import DataError, ModelError, StatisticalError

from conftest import random_model


def test_validate_dag_flags_bad_levels():
    assert daglm.validate_dag(daglm.DagSpec(levels=(2, 3))) == []
    bad = daglm.DagSpec(levels=(2, 0))
    problems = daglm.validate_dag(bad)
    assert problems and "column 2" in problems[0]


def test_validate_dag_flags_label_mismatch():
    bad = daglm.DagSpec(levels=(2,), labels=(("a",),))
    assert daglm.validate_dag(bad)


def test_validate_path_bounds():
    spec = daglm.DagSpec(levels=(2, 3))
    assert daglm.validate_path((2, 3), spec) == (2, 3)
    with pytest.raises(ModelError, match="out of range"):
        daglm.validate_path((0, 1), spec)
    with pytest.raises(ModelError):
        daglm.validate_path((1, 4), spec)
    with pytest.raises(ModelError):
        daglm.validate_path((1,), spec)


def test_kernel_rejects_nonstochastic_rows():
    with pytest.raises(ModelError, match="sum"):
        daglm.TransitionKernel(
            initial=np.array([0.6, 0.6]),
            steps=(np.array([[1.0, 0.0], [0.0, 1.0]]),),
        )
    with pytest.raises(ModelError, match="negative"):
        daglm.TransitionKernel(
            initial=np.array([1.5, -0.5]),
            steps=(np.array([[1.0, 0.0], [0.0, 1.0]]),),
        )


def test_kernel_shape_chain_checked():
    with pytest.raises(ModelError, match="shape"):
        daglm.TransitionKernel(
            initial=np.array([0.5, 0.5]),
            steps=(np.array([[0.5, 0.5, 0.0]]),),
        )


def test_path_probability_demo_values(demo_kernel):
    # source kernel: joint probabilities 3/8, 1/8, 1/8, 3/8
    assert daglm.path_probability(demo_kernel, (1, 1)) == pytest.approx(3 / 8)
    assert daglm.path_probability(demo_kernel, (1, 2)) == pytest.approx(1 / 8)
    assert daglm.path_probability(demo_kernel, (2, 1)) == pytest.approx(1 / 8)
    assert daglm.path_probability(demo_kernel, (2, 2)) == pytest.approx(3 / 8)


def test_uniform_kernel_paths(demo_spec, demo_uniform):
    for path in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert daglm.path_probability(demo_uniform, path) == pytest.approx(1 / 4)
    assert daglm.node_marginal(demo_uniform, 1, 2) == pytest.approx(0.5)


def test_node_marginal_demo(demo_kernel):
    for j in (1, 2):
        for i in (1, 2):
            assert daglm.node_marginal(demo_kernel, j, i) == pytest.approx(0.5)


def test_conditional_path_probability_demo(demo_kernel):
    assert daglm.conditional_path_probability(demo_kernel, (1, 1), 2, 1) == pytest.approx(3 / 4)
    assert daglm.conditional_path_probability(demo_kernel, (2, 1), 2, 1) == pytest.approx(1 / 4)
    # path not through the node contributes nothing
    assert daglm.conditional_path_probability(demo_kernel, (1, 2), 2, 1) == 0.0


def test_conditional_on_null_event():
    kernel = daglm.TransitionKernel(
        initial=np.array([1.0, 0.0]),
        steps=(np.array([[1.0, 0.0], [0.0, 1.0]]),),
    )
    with pytest.raises(StatisticalError, match="null event"):
        daglm.conditional_path_probability(kernel, (2, 2), 1, 2)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_marginals_sum_to_one_within_each_column(seed):
    rng = np.random.default_rng(seed)
    spec, kernel, _, _ = random_model(rng)
    for j in range(1, spec.c + 1):
        total = sum(
            daglm.node_marginal(kernel, j, i)
            for i in range(1, spec.levels[j - 1] + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_path_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    spec, kernel, _, _ = random_model(rng)
    total = sum(
        daglm.path_probability(kernel, p)
        for p in daglm.enumerate_support_paths(kernel)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_conditional_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    spec, kernel, _, _ = random_model(rng, sparsify=0.3)
    for j in range(1, spec.c + 1):
        for i in range(1, spec.levels[j - 1] + 1):
            if daglm.node_marginal(kernel, j, i) <= 1e-15:
                continue
            total = sum(
                daglm.conditional_path_probability(kernel, p, j, i)
                for p in daglm.enumerate_support_paths(kernel, j, i)
            )
            assert total == pytest.approx(1.0, abs=1e-10)


def test_enumerate_support_paths_prunes_zero_entries():
    kernel = daglm.TransitionKernel(
        initial=np.array([1.0, 0.0]),
        steps=(np.array([[0.5, 0.5], [1.0, 0.0]]),),
    )
    paths = daglm.enumerate_support_paths(kernel)
    assert set(paths) == {(1, 1), (1, 2)}


def test_enumerate_support_cap():
    spec = daglm.DagSpec(levels=(4,) * 12)
    kernel = daglm.uniform_kernel(spec)
    with pytest.raises(ModelError, match="sampling"):
        daglm.enumerate_support_paths(kernel, cap=1000)


def test_log_space_path_probability_agrees_with_direct():
    # many columns forces the log-space route; compare against plain products
    c = 35
    spec = daglm.DagSpec(levels=(2,) * c)
    kernel = daglm.uniform_kernel(spec)
    path = tuple(1 for _ in range(c))
    assert daglm.path_probability(kernel, path) == pytest.approx(0.5 ** c, rel=1e-12)


def test_kernels_equivalent_pattern(demo_kernel, demo_uniform):
    assert daglm.kernels_equivalent(demo_kernel, demo_uniform)
    blocked = daglm.TransitionKernel(
        initial=np.array([0.5, 0.5]),
        steps=(np.array([[1.0, 0.0], [0.0, 1.0]]),),
    )
    assert not daglm.kernels_equivalent(demo_kernel, blocked)
    other = daglm.TransitionKernel(initial=np.array([1.0]), steps=())
    assert not daglm.kernels_equivalent(demo_kernel, other)


def test_node_quality_gaussian_moments():
    q = daglm.NodeQuality.gaussian(1.0, 3.0)
    # raw moments of a normal via the moment recursion; index 0 holds m_0 = 1
    assert q.raw_moments(4) == pytest.approx([1.0, 1.0, 4.0, 10.0, 46.0])
    assert q.mean_value == 1.0
    assert q.variance_value == 3.0


def test_node_quality_bernoulli_and_point_mass():
    b = daglm.NodeQuality.bernoulli(0.3)
    assert b.raw_moments(4) == pytest.approx([1.0, 0.3, 0.3, 0.3, 0.3])
    assert b.variance_value == pytest.approx(0.21)
    p = daglm.NodeQuality.point_mass(2.0)
    assert p.raw_moments(3) == pytest.approx([1.0, 2.0, 4.0, 8.0])
    assert p.variance_value == 0.0


def test_node_quality_empirical_moments():
    q = daglm.NodeQuality.from_raw_moments([1.0, 2.0])
    assert q.mean_value == 1.0
    assert q.variance_value == pytest.approx(1.0)
    with pytest.raises(ModelError, match="moment"):
        q.raw_moment(3)
    with pytest.raises(ModelError, match="sample"):
        q.sample(np.random.default_rng(0), 5)


def test_quality_model_lookup(demo_spec, demo_quality):
    node = demo_quality.node(2, 1)
    assert node.mean_value == -2.0
    with pytest.raises(ModelError, match="quality"):
        demo_quality.node(3, 1)
    means = demo_quality.mean_matrix(demo_spec)
    assert means.shape == (2, 2)
    np.testing.assert_allclose(means, [[0.0, 1.0], [-2.0, 2.0]])


def test_path_dataset_validation():
    spec = daglm.DagSpec(levels=(2, 2))
    with pytest.raises(DataError, match="range"):
        daglm.PathDataset(
            spec=spec,
            paths=np.array([[1, 3]]),
            responses=np.array([1.0]),
        )
    with pytest.raises(DataError, match="finite"):
        daglm.PathDataset(
            spec=spec,
            paths=np.array([[1, 2]]),
            responses=np.array([np.nan]),
        )


def test_path_dataset_counts(demo_data):
    total = sum(demo_data.count(1, i) for i in (1, 2))
    assert total == demo_data.n
    mask = demo_data.node_mask(2, 1)
    assert mask.sum() == demo_data.count(2, 1)


def test_estimate_kernel_exact_frequencies():
    spec = daglm.DagSpec(levels=(2, 2))
    paths = np.array([[1, 1]] * 3 + [[1, 2]] * 1 + [[2, 1]] * 1 + [[2, 2]] * 3)
    data = daglm.PathDataset(spec=spec, paths=paths, responses=np.zeros(8))
    k = daglm.estimate_kernel(data)
    np.testing.assert_allclose(k.initial, [0.5, 0.5])
    np.testing.assert_allclose(k.steps[0], [[0.75, 0.25], [0.25, 0.75]])
    assert not k.unobserved


def test_estimate_kernel_unobserved_row_flagged():
    spec = daglm.DagSpec(levels=(2, 2))
    paths = np.array([[1, 1], [1, 2]])
    data = daglm.PathDataset(spec=spec, paths=paths, responses=np.zeros(2))
    k = daglm.estimate_kernel(data)
    # flags are (column, level) of the node whose outgoing row is unknown
    assert (1, 2) in k.unobserved
    assert np.isnan(k.steps[0][1]).all()
    # here the flagged node also has zero estimated inbound mass, so
    # downstream marginals are still well defined
    assert daglm.node_marginal(k, 2, 1) == pytest.approx(0.5)


def test_unobserved_row_with_inbound_mass_refuses():
    # hand-built kernel where mass would flow through the unknown row
    k = daglm.TransitionKernel(
        initial=np.array([0.5, 0.5]),
        steps=(np.array([[0.5, 0.5], [np.nan, np.nan]]),),
        unobserved={(1, 2)},
    )
    with pytest.raises(StatisticalError, match="unobserved"):
        daglm.node_marginal(k, 2, 1)
    with pytest.raises(StatisticalError, match="unobserved"):
        daglm.path_probability(k, (2, 1))
    with pytest.raises(StatisticalError):
        daglm.enumerate_support_paths(k)
    with pytest.raises(StatisticalError, match="unobserved"):
        daglm.kernels_equivalent(k, k)


def test_estimate_kernel_smoothing_removes_gaps():
    spec = daglm.DagSpec(levels=(2, 2))
    paths = np.array([[1, 1], [1, 2]])
    data = daglm.PathDataset(spec=spec, paths=paths, responses=np.zeros(2))
    k = daglm.estimate_kernel(data, smoothing=0.5)
    assert not k.unobserved
    np.testing.assert_allclose(k.steps[0].sum(axis=1), [1.0, 1.0])
    # smoothed unvisited row is uniform
    np.testing.assert_allclose(k.steps[0][1], [0.5, 0.5])


@given(seed=st.integers(0, 10_000), n=st.integers(50, 400))
@settings(max_examples=25, deadline=None)
def test_estimate_kernel_consistent_with_sampler(seed, n):
    rng = np.random.default_rng(seed)
    spec, kernel, _, quality = random_model(rng, max_c=3, max_r=3)
    config = daglm.ExperimentConfig(
        spec=spec, kernel=kernel, quality=quality, n=n, seed=seed
    )
    data = daglm.sample_dataset(config, 0)
    est = daglm.estimate_kernel(data, smoothing=1.0)
    np.testing.assert_allclose(est.initial.sum(), 1.0, atol=1e-12)
    for step in est.steps:
        np.testing.assert_allclose(step.sum(axis=1), 1.0, atol=1e-12)
