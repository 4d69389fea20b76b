import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import daglm
from daglm import REGIME_KNOWN, ModelError, NoDataError, StatisticalError
from daglm.estimators import cell_estimate

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


def naive_av(data, kernel, i, j, which):
    """The naive estimator's plug-in asymptotic variance: the known-source
    regime with the source kernel as the target, so that every ratio is 1."""
    return daglm.plugin_asym_var(data, kernel, i, j, which, REGIME_KNOWN, kernel=kernel)


def with_responses(data, responses):
    return daglm.PathDataset(data.spec, data.paths, responses)


def path_weights(data, i, j, kind, kernel=None, target=None):
    """Each observed path's per-record weight in the estimate at node (i, j):
    the estimated mean of the path's indicator response, times the cell's
    record count over the path's."""
    weights = {}
    for path in np.unique(data.paths[data.paths[:, j - 1] == i], axis=0):
        on = (data.paths == path).all(axis=1)
        est = cell_estimate(with_responses(data, on.astype(float)), i, j, kind, kernel, target)
        weights[tuple(path.tolist())] = est.mean * est.count / on.sum()
    return weights


@pytest.fixture
def tiny(demo_spec):
    # node (1, col 2) sees paths (1,1) twice and (2,1) once
    return make_data(
        demo_spec,
        [((1, 1), 1.0), ((1, 1), 3.0), ((2, 1), 2.0), ((1, 2), 4.0), ((2, 2), 0.0)],
    )


def node_sums(data):
    """Per-node response sums B and record counts V, shape (r_max, c), from
    the dataset's path groups."""
    B = np.zeros((data.spec.r_max, data.spec.c))
    V = np.zeros((data.spec.r_max, data.spec.c))
    groups = data.groups
    for j, r in enumerate(data.spec.levels, start=1):
        for i in range(1, r + 1):
            at = groups.paths[:, j - 1] == i
            V[i - 1, j - 1] = groups.counts[at].sum()
            B[i - 1, j - 1] = groups.sums[at, 0].sum()
    return B, V


def test_accumulate_counts_single_record(demo_spec):
    data = make_data(demo_spec, [((1, 1), 3.0)])
    B, V = node_sums(data)
    np.testing.assert_array_equal(V, [[1, 1], [0, 0]])
    np.testing.assert_array_equal(B, [[3, 3], [0, 0]])


def test_accumulate_counts_empty(demo_spec):
    data = daglm.PathDataset(
        spec=demo_spec, paths=np.empty((0, 2), dtype=int), responses=np.empty(0)
    )
    B, V = node_sums(data)
    assert not B.any() and not V.any()


def test_accumulate_counts_column_sums(demo_data):
    B, V = node_sums(demo_data)
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


def test_measure_change_ratio_values(tiny, demo_kernel, demo_uniform):
    # the weighted estimator's per-path ratio at node (1, col 2)
    weights = path_weights(tiny, 1, 2, "weighted", demo_kernel, demo_uniform)
    assert list(weights) == [(1, 1), (2, 1)]
    np.testing.assert_allclose(list(weights.values()), [2 / 3, 2.0], rtol=1e-15)


def test_measure_change_ratio_identity(demo_spec, demo_kernel):
    data = make_data(demo_spec, [(path, 0.0) for path in [(1, 1), (1, 2), (2, 1), (2, 2)]])
    for j in (1, 2):
        for i in (1, 2):
            weights = path_weights(data, i, j, "weighted", demo_kernel, demo_kernel)
            assert list(weights.values()) == [1.0, 1.0]


def test_measure_change_ratio_errors(tiny, demo_kernel):
    blocked = daglm.TransitionKernel(
        initial=np.array([0.5, 0.5]),
        steps=(np.array([[1.0, 0.0], [0.0, 1.0]]),),
    )
    with pytest.raises(ModelError, match="not equivalent"):
        cell_estimate(tiny, 1, 1, "weighted", demo_kernel, blocked)


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


def plugin_ratio(data, target, i, j):
    """The plug-in estimator's per-path ratio at node (i, j), by path."""
    return path_weights(data, i, j, "plugin", target=target)


def test_empirical_ratio_balanced(demo_spec, demo_uniform):
    rows = [((1, 1), 0.0), ((1, 2), 0.0), ((2, 1), 0.0), ((2, 2), 0.0)]
    data = make_data(demo_spec, rows)
    for j in (1, 2):
        for i in (1, 2):
            ratio = plugin_ratio(data, demo_uniform, i, j)
            assert list(ratio.values()) == pytest.approx([1.0, 1.0])


def test_empirical_ratio_skewed_cell(demo_spec, demo_uniform):
    # path (1,1) at 3 of 4 records through node (1, col 2)
    rows = [((1, 1), 0.0)] * 3 + [((2, 1), 0.0)]
    data = make_data(demo_spec, rows)
    ratio = plugin_ratio(data, demo_uniform, 1, 2)
    assert ratio == pytest.approx({(1, 1): 2 / 3, (2, 1): 2.0})


def test_empirical_ratio_unseen_path(demo_spec, demo_uniform):
    # an unseen path through the node has no weight; the cell is refused
    rows = [((1, 1), 0.0), ((1, 2), 0.0)]
    data = make_data(demo_spec, rows)
    assert naive_cell(data, 1, 2).count == 1
    with pytest.raises(StatisticalError, match="missing from the data"):
        plugin_cell(data, demo_uniform, 1, 2)


def test_empirical_ratio_converges_to_exact(demo_config, demo_kernel, demo_uniform):
    config = daglm.ExperimentConfig(
        spec=demo_config.spec, kernel=demo_config.kernel, quality=demo_config.quality,
        n=200_000, seed=41,
    )
    data = daglm.sample_dataset(config, 0)
    exact = path_weights(data, 1, 2, "weighted", demo_kernel, demo_uniform)
    est = path_weights(data, 1, 2, "plugin", target=demo_uniform)
    assert list(exact) == list(est) == [(1, 1), (2, 1)]
    np.testing.assert_allclose(list(est.values()), list(exact.values()), rtol=0.02)


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
    for j in (1, 2):
        for i in (1, 2):
            est = cell_estimate(demo_data, i, j, "naive")
            assert est.count == int(np.sum(demo_data.paths[:, j - 1] == i))
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
    # the estimated mean of a response of 1 is the record mean of the weights
    ones = with_responses(data, np.ones(data.n))
    for j in range(1, spec.c + 1):
        for i in range(1, spec.levels[j - 1] + 1):
            if data.count(j, i) == 0:
                continue
            try:
                est = plugin_cell(ones, target, i, j)
            except StatisticalError:
                continue  # support not exhausted at this n; checked elsewhere
            assert est.mean == pytest.approx(1.0, abs=1e-9)


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
@example(seed=29)
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
            mask = data.paths[:, j - 1] == i
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
                naive = naive_av(data, kernel, i, j, which)
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


@given(seed=st.integers(0, 100_000), shift=st.sampled_from([1e5, 1e6]))
@settings(max_examples=30, deadline=None)
def test_estimates_under_a_shift_of_the_response(seed, shift):
    # naive and plugin are self-normalised: under b -> b + c their means
    # move by c, and their variances and both plug-in AVs stay put. The
    # weighted (known-source) estimator divides by n, not by the sum of its
    # weights, so its mean moves by c * sum(w * count) / n.
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, max_c=3, max_r=3)
    config = daglm.ExperimentConfig(
        spec=spec, kernel=kernel, quality=quality,
        n=int(rng.integers(20, 400)), seed=seed,
    )
    data = daglm.sample_dataset(config, 0)
    # responses on the grid of the shifted ones, so that the shift is exact
    base = daglm.PathDataset(spec, data.paths, (data.responses + shift) - shift)
    moved = daglm.PathDataset(spec, data.paths, base.responses + shift)
    close = dict(rel=1e-9, abs=1e-12)

    def avs(d, kind, i, j):
        if kind == "naive":
            return [naive_av(d, kernel, i, j, which).value for which in ("mean", "variance")]
        return [daglm.plugin_asym_var(d, target, i, j, which).value
                for which in ("mean", "variance")]

    for j in range(1, spec.c + 1):
        for i in range(1, spec.levels[j - 1] + 1):
            if base.count(j, i) == 0:
                continue
            # the weight total sum(w * count) / n is the weighted mean of 1
            ones = with_responses(base, np.ones(base.n))
            total = cell_estimate(ones, i, j, "weighted", kernel, target).mean
            known = [cell_estimate(d, i, j, "weighted", kernel, target) for d in (base, moved)]
            assert known[1].mean == pytest.approx(known[0].mean + shift * total, rel=1e-12)
            for kind in ("naive", "plugin"):
                try:
                    est = cell_estimate(base, i, j, kind, kernel, target)
                except StatisticalError as exc:
                    with pytest.raises(StatisticalError, match=re.escape(str(exc))):
                        cell_estimate(moved, i, j, kind, kernel, target)
                    continue
                est_moved = cell_estimate(moved, i, j, kind, kernel, target)
                assert est_moved.mean == pytest.approx(est.mean + shift, rel=1e-12)
                assert est_moved.variance == pytest.approx(est.variance, **close)
                try:
                    values = avs(base, kind, i, j)
                except StatisticalError as exc:
                    with pytest.raises(StatisticalError, match=re.escape(str(exc))):
                        avs(moved, kind, i, j)
                    continue
                assert avs(moved, kind, i, j) == pytest.approx(values, **close)
