import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import daglm
from daglm import DataError, ModelError, StatisticalError
from daglm.model import PathGroups

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
    # a kernel is complete: a row without information is not a kernel row
    with pytest.raises(ModelError, match=r"^step 1 row 2 contains NaN$"):
        daglm.TransitionKernel(
            initial=np.array([0.5, 0.5]),
            steps=(np.array([[0.5, 0.5], [np.nan, np.nan]]),),
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


def path_probability(kernel, path):
    """Probability of drawing ``path``: initial entry times step entries."""
    prob = kernel.initial[path[0] - 1]
    for step, a, b in zip(kernel.steps, path, path[1:]):
        prob *= step[a - 1, b - 1]
    return float(prob)


def test_path_probability_demo_values(demo_kernel):
    # source kernel: joint probabilities 3/8, 1/8, 1/8, 3/8
    assert path_probability(demo_kernel, (1, 1)) == pytest.approx(3 / 8)
    assert path_probability(demo_kernel, (1, 2)) == pytest.approx(1 / 8)
    assert path_probability(demo_kernel, (2, 1)) == pytest.approx(1 / 8)
    assert path_probability(demo_kernel, (2, 2)) == pytest.approx(3 / 8)
    # conditioning on the path's first node divides by that node's marginal
    for path in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        cond = daglm.conditional_path_probability(demo_kernel, path, 1, path[0])
        first = daglm.node_marginal(demo_kernel, 1, path[0])
        assert cond * first == pytest.approx(path_probability(demo_kernel, path))


def test_uniform_kernel_paths(demo_spec, demo_uniform):
    for path in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert path_probability(demo_uniform, path) == pytest.approx(1 / 4)
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
    with pytest.raises(ModelError, match=r"path out of range: level 3 in column 2"):
        daglm.conditional_path_probability(demo_kernel, (1, 3), 2, 1)


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
        path_probability(kernel, p)
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


def test_kernels_equivalent_pattern(demo_kernel, demo_uniform):
    assert daglm.kernels_equivalent(demo_kernel, demo_uniform)
    blocked = daglm.TransitionKernel(
        initial=np.array([0.5, 0.5]),
        steps=(np.array([[1.0, 0.0], [0.0, 1.0]]),),
    )
    assert not daglm.kernels_equivalent(demo_kernel, blocked)
    other = daglm.TransitionKernel(initial=np.array([1.0]), steps=())
    assert not daglm.kernels_equivalent(demo_kernel, other)


def stored_variance(quality):
    """The central moment of order 2 that the exact layer reads for a lone
    node, its column's reference being the node's own mean."""
    return daglm.QualityModel({(1, 1): quality})._moment_table((1,))[0][0, 2]


def test_node_quality_gaussian_moments():
    q = daglm.NodeQuality.gaussian(1.0, 3.0)
    # raw moments of a normal from its central moments; index 0 holds m_0 = 1
    assert q.raw_moments(4) == pytest.approx([1.0, 1.0, 4.0, 10.0, 46.0])
    assert q.mean_value == 1.0
    assert stored_variance(q) == 3.0
    # the variance is stored, not recovered as m2 - m1^2, so a far mean
    # leaves it exact
    assert stored_variance(daglm.NodeQuality.gaussian(1e8, 1.0)) == 1.0


def test_node_quality_bernoulli_and_point_mass():
    b = daglm.NodeQuality.bernoulli(0.3)
    assert b.raw_moments(4) == pytest.approx([1.0, 0.3, 0.3, 0.3, 0.3])
    assert stored_variance(b) == pytest.approx(0.21)
    p = daglm.NodeQuality.point_mass(2.0)
    assert p.raw_moments(3) == pytest.approx([1.0, 2.0, 4.0, 8.0])
    assert stored_variance(p) == 0.0


@pytest.mark.parametrize("quality", [
    daglm.NodeQuality.gaussian(1.5, 0.7),
    daglm.NodeQuality.gaussian(-2.25, 0.0),
    daglm.NodeQuality.bernoulli(0.3),
    daglm.NodeQuality.point_mass(-1.7),
    daglm.NodeQuality.from_raw_moments((0.5, 1.1, 0.9, 2.3)),
    daglm.NodeQuality.from_raw_moments((0.5, 1.1)),
])
def test_raw_moments_equal_raw_moment_bitwise(quality):
    top = 4 if quality.moments is None else len(quality.moments)
    for order in range(top + 1):
        assert quality.raw_moments(order).tolist() == [
            quality.raw_moments(k)[k] for k in range(order + 1)
        ]
    if quality.moments is not None:
        with pytest.raises(ModelError, match=rf"moment order {top + 2} not available"):
            quality.raw_moments(top + 2)


def test_node_quality_empirical_moments():
    q = daglm.NodeQuality.from_raw_moments([1.0, 2.0])
    assert q.mean_value == 1.0
    assert stored_variance(q) == pytest.approx(1.0)
    with pytest.raises(ModelError, match="moment"):
        q.raw_moments(3)
    with pytest.raises(ModelError, match="sample"):
        q.sample(np.random.default_rng(0), 5)


def test_quality_model_lookup(demo_quality):
    node = demo_quality.node(2, 1)
    assert node.mean_value == -2.0
    with pytest.raises(ModelError, match="quality"):
        demo_quality.node(3, 1)
    means = [[demo_quality.node(i, j).mean_value for j in (1, 2)] for i in (1, 2)]
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


@pytest.mark.parametrize("level", [1.7, np.nan, np.inf])
def test_path_dataset_refuses_non_integral_levels(level):
    spec = daglm.DagSpec(levels=(2, 2))
    with pytest.raises(DataError, match=rf"^path level {level} is not an integer$"):
        daglm.PathDataset(spec, np.array([[level, 2.0], [2.0, 1.0]]), np.zeros(2))
    with pytest.raises(DataError, match="is not an integer"):
        daglm.PathDataset(spec, [[1, 2], [2, level]], np.zeros(2))
    data = daglm.PathDataset(spec, np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))
    assert data.paths.dtype == np.int64 and data.paths.tolist() == [[1, 2], [2, 1]]


def test_path_dataset_keeps_handed_over_arrays_and_copies_the_rest():
    spec = daglm.DagSpec(levels=(2, 2))
    paths, responses = np.array([[1, 2], [2, 1]]), np.array([0.5, 1.5])
    paths.setflags(write=False)
    responses.setflags(write=False)
    data = daglm.PathDataset(spec, paths, responses)
    assert np.shares_memory(data.paths, paths) and np.shares_memory(data.responses, responses)
    # a writable array, a view or another dtype is copied; the caller's
    # array stays writable
    for paths, responses in ((np.array([[1, 2], [2, 1]]), np.array([0.5, 1.5])),
                             (np.array([[1, 2], [2, 1]], dtype=np.int32),
                              np.array([0.5, 1.5, 9.0])[:2])):
        data = daglm.PathDataset(spec, paths, responses)
        assert not np.shares_memory(data.paths, paths)
        assert not np.shares_memory(data.responses, responses)
        assert paths.flags.writeable and responses.flags.writeable
        assert not data.paths.flags.writeable and not data.responses.flags.writeable
    frozen_view = np.array([[1, 2], [2, 1], [1, 1]])[:2]
    frozen_view.setflags(write=False)
    assert not np.shares_memory(daglm.PathDataset(spec, frozen_view, responses).paths,
                                frozen_view)


def test_path_dataset_counts(demo_data):
    # the records through node (i, j), counted from the paths and from the
    # groups: each entry's count lands on its path's levels
    groups = demo_data.groups
    for j, r in enumerate(demo_data.spec.levels, start=1):
        through = [(demo_data.paths[:, j - 1] == i).sum() for i in range(1, r + 1)]
        assert sum(through) == demo_data.n
        grouped = np.bincount(groups.paths[groups.path, j - 1], weights=groups.counts,
                              minlength=r + 1)[1:]
        assert grouped.tolist() == through


# ---------------------------------------------------------------------------
# grouping by path: a bincount over the dense path key, held to the stable
# argsort (np.unique) it replaced

def unique_groups(data):
    """The groups of a dataset by np.unique over the mixed-radix path key."""
    key = np.zeros(data.n, dtype=np.int64)
    bound = 1
    for col, r in zip(data.paths.T, data.spec.levels):
        if bound * r > 2**62:
            key = np.unique(key, return_inverse=True)[1]
            bound = data.n
        key = key * r + (col - 1)
        bound *= r
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    sums = np.empty((first.size, PathGroups.ORDER + 1))
    sums[:, 0] = np.bincount(inverse, weights=data.responses, minlength=first.size)
    deviation = data.responses - (sums[:, 0] / counts)[inverse]
    power = deviation
    for k in range(1, PathGroups.ORDER + 1):
        sums[:, k] = np.bincount(inverse, weights=power, minlength=first.size)
        power = power * deviation
    return PathGroups(data.paths[first], np.arange(first.size), counts, sums,
                      np.zeros(first.size, dtype=np.int64), 1)


def assert_same_groups(got, expected):
    assert got.replicates == expected.replicates
    for field in ("paths", "path", "counts", "sums", "replicate"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


@given(
    seed=st.integers(0, 10_000),
    sparsify=st.sampled_from([0.0, 0.3]),
    n=st.sampled_from([1, 5, 40, 300]),
)
@settings(max_examples=40, deadline=None)
def test_groups_match_unique_reference(seed, sparsify, n):
    # n below the number of paths (up to 256) takes the np.unique branch
    rng = np.random.default_rng(seed)
    spec, kernel, _, quality = random_model(rng, sparsify=sparsify)
    config = daglm.ExperimentConfig(
        spec=spec, kernel=kernel, quality=quality, n=n, seed=seed
    )
    data = daglm.sample_dataset(config, 0)
    assert_same_groups(data.groups, unique_groups(data))


def test_groups_renumber_keys_past_64_bits():
    rng = np.random.default_rng(4)
    spec = daglm.DagSpec(levels=(2,) * 70)
    data = daglm.PathDataset(spec, rng.integers(1, 3, size=(60, 70)), rng.normal(size=60))
    data = daglm.PathDataset(spec, np.concatenate([data.paths, data.paths[:20]]),
                             np.concatenate([data.responses, -data.responses[:20]]))
    assert len(data.groups.paths) == 60
    assert_same_groups(data.groups, unique_groups(data))


def test_estimate_kernel_exact_frequencies():
    spec = daglm.DagSpec(levels=(2, 2))
    paths = np.array([[1, 1]] * 3 + [[1, 2]] * 1 + [[2, 1]] * 1 + [[2, 2]] * 3)
    data = daglm.PathDataset(spec=spec, paths=paths, responses=np.zeros(8))
    k = daglm.estimate_kernel(data)
    np.testing.assert_allclose(k.initial, [0.5, 0.5])
    np.testing.assert_allclose(k.steps[0], [[0.75, 0.25], [0.25, 0.75]])


def test_estimate_kernel_refuses_rows_without_transitions():
    spec = daglm.DagSpec(levels=(2, 2, 2), labels=(("a", "b"), ("x", "y"), ("u", "v")))
    data = daglm.PathDataset(spec=spec, paths=np.array([[1, 1, 1], [1, 1, 2]]),
                             responses=np.zeros(2))
    with pytest.raises(StatisticalError) as info:
        daglm.estimate_kernel(data)
    assert str(info.value) == (
        "no observed transitions out of level 2 of column 1 ('b'), "
        "level 2 of column 2 ('y'); re-run with --smoothing > 0"
    )


def test_estimate_kernel_smoothing_removes_gaps():
    spec = daglm.DagSpec(levels=(2, 2))
    paths = np.array([[1, 1], [1, 2]])
    data = daglm.PathDataset(spec=spec, paths=paths, responses=np.zeros(2))
    k = daglm.estimate_kernel(data, smoothing=0.5)
    np.testing.assert_allclose(k.steps[0].sum(axis=1), [1.0, 1.0])
    # smoothed unvisited row is uniform
    np.testing.assert_allclose(k.steps[0][1], [0.5, 0.5])


@pytest.mark.parametrize("alpha, refusal", [
    (float("nan"), "smoothing must be finite, got nan"),
    (float("inf"), "smoothing must be finite, got inf"),
    (1e308, "smoothing 1e+308 overflows the smoothed transition totals"),
])
def test_estimate_kernel_refuses_unusable_smoothing(alpha, refusal):
    spec = daglm.DagSpec(levels=(2, 2))
    data = daglm.PathDataset(spec=spec, paths=np.array([[1, 1], [2, 2]]),
                             responses=np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError) as info:
            daglm.estimate_kernel(data, smoothing=alpha)
    assert str(info.value) == refusal


def per_record_kernel(data, alpha):
    """The transition frequencies by a scan of the records, None when a
    row has no transitions."""
    r = data.spec.levels
    first = np.bincount(data.paths[:, 0] - 1, minlength=r[0]).astype(float)
    initial = (first + alpha) / (data.n + alpha * r[0])
    steps = []
    for k in range(data.spec.c - 1):
        counts = np.zeros((r[k], r[k + 1]))
        np.add.at(counts, (data.paths[:, k] - 1, data.paths[:, k + 1] - 1), 1.0)
        counts += alpha
        totals = counts.sum(axis=1)
        if not totals.all():
            return None
        steps.append(np.stack([counts[a] / totals[a] for a in range(r[k])]))
    return initial, steps


def per_record_markov(data):
    """The Markov discrepancies by nested masks over the records."""
    out = []
    for k in range(data.spec.c - 2):
        a, b_col, c_col = data.paths[:, k], data.paths[:, k + 1], data.paths[:, k + 2]
        worst = 0.0
        for b_val in np.unique(b_col):
            sel_b = b_col == b_val
            cond_b = np.bincount(c_col[sel_b] - 1, minlength=data.spec.levels[k + 2]) / sel_b.sum()
            for a_val in np.unique(a[sel_b]):
                sel_ab = sel_b & (a == a_val)
                cond_ab = np.bincount(
                    c_col[sel_ab] - 1, minlength=data.spec.levels[k + 2]
                ) / sel_ab.sum()
                worst = max(worst, float(np.abs(cond_ab - cond_b).max()))
        out.append(worst)
    return out


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       alpha=st.sampled_from([0.0, 0.5, 1.0, 1 / 3]))
@settings(max_examples=200, deadline=None)
def test_path_count_reductions_equal_per_record_scans(seed, n, alpha):
    rng = np.random.default_rng(seed)
    levels = tuple(int(r) for r in rng.integers(1, 5, size=rng.integers(1, 5)))
    # skewed level draws, so that some levels go unvisited
    paths = np.stack([np.minimum(rng.geometric(rng.uniform(0.3, 0.9), n), r)
                      for r in levels], axis=1)
    data = daglm.PathDataset(daglm.DagSpec(levels), paths, rng.normal(size=n))
    expected = per_record_kernel(data, alpha)
    if expected is None:
        with pytest.raises(StatisticalError, match="no observed transitions"):
            daglm.estimate_kernel(data, smoothing=alpha)
    else:
        got = daglm.estimate_kernel(data, smoothing=alpha)
        assert got.initial.tobytes() == expected[0].tobytes()
        assert [s.tobytes() for s in got.steps] == [s.tobytes() for s in expected[1]]
    assert daglm.markov_discrepancy(data) == per_record_markov(data)


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
