import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import daglm
from daglm import ModelError, NoDataError, StatisticalError
from daglm.estimators import accumulate_counts, cell_estimate

from conftest import random_model


def make_data(spec, rows):
    paths = np.array([r[0] for r in rows])
    responses = np.array([float(r[1]) for r in rows])
    return daglm.PathDataset(spec=spec, paths=paths, responses=responses)


def naive_cell(data, i, j):
    return cell_estimate(data, i, j, "naive")


def weighted_cell(data, kernel, target, i, j):
    return cell_estimate(data, i, j, "weighted", kernel, target)


def plugin_cell(data, target, i, j):
    return cell_estimate(data, i, j, "plugin", target=target)


@pytest.fixture
def tiny(demo_spec):
    # node (1, col 2) sees paths (1,1) twice and (2,1) once
    return make_data(
        demo_spec,
        [((1, 1), 1.0), ((1, 1), 3.0), ((2, 1), 2.0), ((1, 2), 4.0), ((2, 2), 0.0)],
    )


def test_accumulate_counts_single_record(demo_spec):
    data = make_data(demo_spec, [((1, 1), 3.0)])
    B, V = accumulate_counts(data)
    np.testing.assert_array_equal(V, [[1, 1], [0, 0]])
    np.testing.assert_array_equal(B, [[3, 3], [0, 0]])


def test_accumulate_counts_empty(demo_spec):
    data = daglm.PathDataset(
        spec=demo_spec, paths=np.empty((0, 2), dtype=int), responses=np.empty(0)
    )
    B, V = accumulate_counts(data)
    assert not B.any() and not V.any()


def test_accumulate_counts_column_sums(demo_data):
    B, V = accumulate_counts(demo_data)
    np.testing.assert_array_equal(V.sum(axis=0), [demo_data.n, demo_data.n])


def test_naive_mean_average(demo_spec):
    data = make_data(demo_spec, [((1, 1), 2.0), ((1, 2), 4.0)])
    assert naive_cell(data, 1, 1).mean == 3.0


def test_naive_variance_small_cases(demo_spec):
    data = make_data(demo_spec, [((1, 1), 2.0), ((1, 2), 4.0)])
    assert naive_cell(data, 1, 1).variance == pytest.approx(1.0)
    const = make_data(demo_spec, [((1, 1), 5.0), ((1, 2), 5.0)])
    assert naive_cell(const, 1, 1).variance == 0.0


def test_naive_variance_bessel(demo_spec):
    # the n/(n-1) factor the CLI's --bessel applies to cells of >= 2 records
    data = make_data(demo_spec, [((1, 1), 2.0), ((1, 2), 4.0)])
    est = naive_cell(data, 1, 1)
    assert est.variance * est.count / (est.count - 1) == pytest.approx(2.0)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 60))
@settings(max_examples=50, deadline=None)
def test_naive_variance_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    spec = daglm.DagSpec(levels=(2, 2))
    paths = rng.integers(1, 3, size=(n, 2))
    responses = rng.normal(0, 3, size=n)
    data = daglm.PathDataset(spec=spec, paths=paths, responses=responses)
    for j in (1, 2):
        for i in (1, 2):
            sel = responses[paths[:, j - 1] == i]
            if sel.size == 0:
                with pytest.raises(NoDataError):
                    naive_cell(data, i, j)
                continue
            assert naive_cell(data, i, j).variance == pytest.approx(
                np.var(sel), abs=1e-12
            )


def test_no_data_signal(demo_spec):
    data = make_data(demo_spec, [((1, 1), 2.0)])
    with pytest.raises(NoDataError, match=r"no data at node \(2, 1\)"):
        naive_cell(data, 2, 1)


def test_measure_change_ratio_values(demo_kernel, demo_uniform):
    assert daglm.measure_change_ratio(
        demo_kernel, demo_uniform, (1, 1), 2, 1
    ) == pytest.approx(2 / 3)
    assert daglm.measure_change_ratio(
        demo_kernel, demo_uniform, (2, 1), 2, 1
    ) == pytest.approx(2.0)


def test_measure_change_ratio_identity(demo_kernel):
    for path in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for j in (1, 2):
            assert daglm.measure_change_ratio(
                demo_kernel, demo_kernel, path, j, path[j - 1]
            ) == 1.0


def test_measure_change_ratio_errors(demo_kernel, demo_uniform):
    blocked = daglm.TransitionKernel(
        initial=np.array([0.5, 0.5]),
        steps=(np.array([[1.0, 0.0], [0.0, 1.0]]),),
    )
    with pytest.raises(ModelError, match="not equivalent"):
        daglm.measure_change_ratio(demo_kernel, blocked, (1, 1), 1, 1)
    with pytest.raises(ModelError, match="does not pass"):
        daglm.measure_change_ratio(demo_kernel, demo_uniform, (1, 1), 2, 2)


def test_weighted_mean_hand_computed(tiny, demo_kernel, demo_uniform):
    # cell (1, col 2): b = (1, 3, 2), C = (2/3, 2/3, 2)
    want = (1 * 2 / 3 + 3 * 2 / 3 + 2 * 2) / 3
    assert weighted_cell(tiny, demo_kernel, demo_uniform, 1, 2).mean == pytest.approx(want)


def test_weighted_variance_clips_small_sample(tiny, demo_kernel, demo_uniform):
    # hand computation gives second moment 44/9 and mean 20/9, so the raw
    # value is 44/9 - 400/81 = -4/81: genuinely negative in this tiny sample,
    # reported as 0 with the clip flag
    assert weighted_cell(tiny, demo_kernel, demo_uniform, 1, 2).variance == 0.0
    est = cell_estimate(
        tiny, 1, 2, "weighted", demo_kernel, demo_uniform, "uniform"
    )
    assert est.clipped and est.variance == 0.0


def test_weighted_equals_naive_same_kernel(demo_data, demo_kernel):
    for j in (1, 2):
        for i in (1, 2):
            w = weighted_cell(demo_data, demo_kernel, demo_kernel, i, j)
            assert w.mean == naive_cell(demo_data, i, j).mean
            assert w.variance == naive_cell(demo_data, i, j).variance


def test_empirical_ratio_balanced(demo_spec, demo_uniform):
    rows = [((1, 1), 0.0), ((1, 2), 0.0), ((2, 1), 0.0), ((2, 2), 0.0)]
    data = make_data(demo_spec, rows)
    for path in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for j in (1, 2):
            assert daglm.empirical_ratio(
                data, demo_uniform, path, j, path[j - 1]
            ) == pytest.approx(1.0)


def test_empirical_ratio_skewed_cell(demo_spec, demo_uniform):
    # path (1,1) at 3 of 4 records through node (1, col 2)
    rows = [((1, 1), 0.0)] * 3 + [((2, 1), 0.0)]
    data = make_data(demo_spec, rows)
    assert daglm.empirical_ratio(data, demo_uniform, (1, 1), 2, 1) == pytest.approx(2 / 3)
    assert daglm.empirical_ratio(data, demo_uniform, (2, 1), 2, 1) == pytest.approx(2.0)


def test_empirical_ratio_unseen_path(demo_spec, demo_uniform):
    rows = [((1, 1), 0.0), ((1, 2), 0.0)]
    data = make_data(demo_spec, rows)
    with pytest.raises(StatisticalError, match="zero empirical frequency"):
        daglm.empirical_ratio(data, demo_uniform, (2, 1), 2, 1)


def test_empirical_ratio_converges_to_exact(demo_config, demo_kernel, demo_uniform):
    config = daglm.ExperimentConfig(
        spec=demo_config.spec, kernel=demo_config.kernel, quality=demo_config.quality,
        n=200_000, seed=41,
    )
    data = daglm.sample_dataset(config, 0)
    for path in [(1, 1), (2, 1)]:
        exact = daglm.measure_change_ratio(demo_kernel, demo_uniform, path, 2, 1)
        est = daglm.empirical_ratio(data, demo_uniform, path, 2, 1)
        assert est == pytest.approx(exact, rel=0.02)


def test_plugin_equals_naive_when_target_is_empirical(demo_spec):
    # with two columns the stepwise empirical kernel reproduces the joint
    # path frequencies exactly, so every plugin weight is 1 up to rounding
    rng = np.random.default_rng(7)
    paths = rng.integers(1, 3, size=(500, 2))
    responses = rng.normal(size=500)
    data = daglm.PathDataset(spec=demo_spec, paths=paths, responses=responses)
    emp = daglm.estimate_kernel(data)
    for j in (1, 2):
        for i in (1, 2):
            assert plugin_cell(data, emp, i, j).mean == pytest.approx(
                naive_cell(data, i, j).mean, rel=1e-12, abs=1e-12
            )
            assert plugin_cell(data, emp, i, j).variance == pytest.approx(
                naive_cell(data, i, j).variance, rel=1e-12, abs=1e-12
            )


def test_plugin_balanced_equals_naive(demo_spec, demo_uniform):
    # balanced path frequencies make every plugin weight exactly 1
    rows = []
    rng = np.random.default_rng(3)
    for path in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for _ in range(5):
            rows.append((path, float(rng.normal())))
    data = make_data(demo_spec, rows)
    for j in (1, 2):
        for i in (1, 2):
            p = plugin_cell(data, demo_uniform, i, j)
            assert p.mean == naive_cell(data, i, j).mean
            assert p.variance == naive_cell(data, i, j).variance


def test_plugin_missing_support_mass(demo_spec, demo_uniform):
    # only one of the two uniform-support paths through node (1, col 2) seen
    rows = [((1, 1), 1.0), ((1, 2), 2.0), ((2, 2), 0.5)]
    data = make_data(demo_spec, rows)
    with pytest.raises(StatisticalError, match="missing from the data"):
        plugin_cell(data, demo_uniform, 1, 2)


def test_plugin_target_excludes_observed_path(demo_spec):
    target = daglm.TransitionKernel(
        initial=np.array([0.5, 0.5]),
        steps=(np.array([[1.0, 0.0], [0.0, 1.0]]),),
    )
    rows = [((1, 1), 1.0), ((1, 2), 2.0)]
    data = make_data(demo_spec, rows)
    with pytest.raises(StatisticalError, match="excludes observed path"):
        plugin_cell(data, target, 1, 1)


def test_cell_estimate_fields(tiny, demo_kernel, demo_uniform):
    est = cell_estimate(tiny, 1, 2, "weighted", demo_kernel, demo_uniform, "uniform")
    assert est.node == (1, 2)
    assert est.count == 3
    assert est.kind == "weighted-knownQ"
    assert est.target == "uniform"


def test_cell_estimate_count_invariant(demo_data):
    B, V = accumulate_counts(demo_data)
    for j in (1, 2):
        for i in (1, 2):
            est = cell_estimate(demo_data, i, j, "naive")
            assert est.count == int(V[i - 1, j - 1])
            assert est.count <= demo_data.n


def test_pairwise_difference_orders(demo_data, demo_kernel, demo_uniform):
    # a within-column difference is the difference of two cell_estimate rows
    rows = {i: weighted_cell(demo_data, demo_kernel, demo_uniform, i, 1) for i in (1, 2)}
    d12 = rows[1].mean - rows[2].mean
    d21 = rows[2].mean - rows[1].mean
    assert d12 == pytest.approx(-d21)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_weighted_and_naive_fp_equal_on_random_data(seed):
    rng = np.random.default_rng(seed)
    spec, kernel, _, quality = random_model(rng, max_c=3, max_r=3)
    config = daglm.ExperimentConfig(
        spec=spec, kernel=kernel, quality=quality,
        n=int(rng.integers(20, 200)), seed=seed,
    )
    data = daglm.sample_dataset(config, 0)
    for j in range(1, spec.c + 1):
        for i in range(1, spec.levels[j - 1] + 1):
            if data.count(j, i) == 0:
                continue
            w = weighted_cell(data, kernel, kernel, i, j)
            assert w.mean == naive_cell(data, i, j).mean
            assert w.variance == naive_cell(data, i, j).variance


@given(seed=st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_plugin_weights_average_to_one(seed):
    # the empirical ratios weight-average to exactly the target's conditional
    # mass over observed paths, which the support check pins to 1
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, max_c=3, max_r=3)
    config = daglm.ExperimentConfig(
        spec=spec, kernel=kernel, quality=quality, n=600, seed=seed
    )
    data = daglm.sample_dataset(config, 0)
    from daglm.estimators import _plugin_weights

    for j in range(1, spec.c + 1):
        for i in range(1, spec.levels[j - 1] + 1):
            if data.count(j, i) == 0:
                continue
            try:
                cell, w, _ = _plugin_weights(data, target, i, j)
            except StatisticalError:
                continue  # support not exhausted at this n; checked elsewhere
            # one weight per distinct path: the count-weighted mean is the
            # mean over records
            assert np.sum(cell.counts * w) / cell.counts.sum() == pytest.approx(
                1.0, abs=1e-9
            )


def _known_av_per_record(b, w, which):
    # delta method on the per-record pair (x, y) = (b^2 w, b w)
    y, x = b * w, b * b * w
    mu = np.mean(y)
    var_y = np.mean(y * y) - mu * mu
    if which == "mean":
        return var_y
    ex = np.mean(x)
    var_x = np.mean(x * x) - ex * ex
    cov = np.mean(x * y) - ex * mu
    matrix = np.array([[var_x, 2 * mu * cov], [2 * mu * cov, 4 * mu * mu * var_y]])
    return np.array([1.0, -1.0]) @ matrix @ np.array([1.0, -1.0])


def _unknown_av_per_record(b, paths, cond, which):
    # per-path moments from the records of each path, one block per path
    n = b.size
    value = 0.0
    mu = sum(cond[q] * np.mean(b[paths == q]) for q in cond)
    for q, c in cond.items():
        bq = b[paths == q]
        p_hat = bq.size / n
        ratio = c / p_hat
        m1, m2, m3, m4 = (np.mean(bq**k) for k in (1, 2, 3, 4))
        var_b = m2 - m1 * m1
        if which == "mean":
            value += ratio * ratio * p_hat * var_b
            continue
        u, v = -2.0 * mu * ratio, ratio
        value += p_hat * (
            u * u * var_b + 2 * u * v * (m3 - m2 * m1) + v * v * (m4 - m2 * m2)
        )
    return value


@given(seed=st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_per_path_reductions_match_per_record_formulas(seed):
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, max_c=3, max_r=3, sparsify=0.2)
    config = daglm.ExperimentConfig(
        spec=spec, kernel=kernel, quality=quality,
        n=int(rng.integers(20, 400)), seed=seed,
    )
    data = daglm.sample_dataset(config, 0)
    close = dict(rel=1e-9, abs=1e-12)
    for j in range(1, spec.c + 1):
        for i in range(1, spec.levels[j - 1] + 1):
            mask = data.node_mask(j, i)
            b = data.responses[mask]
            if b.size == 0:
                continue
            n = b.size
            # one integer label per record's path
            paths = np.ravel_multi_index(tuple((data.paths[mask] - 1).T), spec.levels)
            rows = {int(q): tuple(int(x) for x in row)
                    for q, row in zip(paths, data.paths[mask])}
            cond_t = {q: daglm.conditional_path_probability(target, row, j, i)
                      for q, row in rows.items()}
            cond_q = {q: daglm.conditional_path_probability(kernel, row, j, i)
                      for q, row in rows.items()}
            counts = {q: int(np.sum(paths == q)) for q in rows}
            weights = {
                "naive": np.ones(n),
                "weighted": np.array([cond_t[q] / cond_q[q] for q in paths]),
                "plugin": np.array([cond_t[q] * n / counts[q] for q in paths]),
            }
            plugin_defined = abs(sum(cond_t.values()) - 1.0) <= 1e-9
            for kind, w in weights.items():
                if kind == "plugin" and not plugin_defined:
                    with pytest.raises(StatisticalError, match="missing from the data"):
                        cell_estimate(data, i, j, kind, kernel, target)
                    continue
                est = cell_estimate(data, i, j, kind, kernel, target)
                mean = np.sum(b * w) / n
                variance = np.sum(b * b * w) / n - mean * mean
                assert est.count == n
                assert est.mean == pytest.approx(mean, **close)
                assert est.variance == pytest.approx(max(variance, 0.0), **close)
            for which in ("mean", "variance"):
                naive = daglm.naive_asym_var(data, i, j, which)
                assert naive.value == pytest.approx(
                    max(_known_av_per_record(b, weights["naive"], which), 0.0), **close
                )
                known = daglm.plugin_asym_var(
                    data, target, i, j, which, daglm.REGIME_KNOWN, kernel=kernel
                )
                assert known.value == pytest.approx(
                    max(_known_av_per_record(b, weights["weighted"], which), 0.0),
                    **close,
                )
                if not plugin_defined:
                    continue
                if min(counts.values()) < 2:
                    with pytest.raises(StatisticalError, match="seen once"):
                        daglm.plugin_asym_var(data, target, i, j, which)
                    continue
                unknown = daglm.plugin_asym_var(data, target, i, j, which)
                assert unknown.value == pytest.approx(
                    max(_unknown_av_per_record(b, paths, cond_t, which), 0.0), **close
                )
