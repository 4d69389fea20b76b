import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import daglm
from daglm import ModelError, StatisticalError
from daglm.asymptotics import (
    _cell_support,
    asym_var_mean_known,
    asym_var_mean_unknown,
    asym_var_variance_known,
    asym_var_variance_unknown,
)
from daglm.model import SUPPORT_ZERO
from daglm.oracle import (
    exact_conditional_moments,
    exact_estimator_targets,
    path_raw_moments,
    support_table,
    verify_measure_change,
)

from conftest import random_model


def test_path_raw_moments_two_gaussians(demo_quality):
    # path (1, 2): N(0,2) + N(2,1) contributions, so b ~ N(2, 3)
    m = path_raw_moments(demo_quality, (1, 2), 4)
    assert m[0] == 1.0
    assert m[1] == pytest.approx(2.0)
    assert m[2] == pytest.approx(7.0)      # 2^2 + 3
    assert m[3] == pytest.approx(26.0)     # mu^3 + 3 mu sigma^2
    assert m[4] == pytest.approx(115.0)    # mu^4 + 6 mu^2 s^2 + 3 s^4


def test_path_raw_moments_order_cap(demo_quality):
    with pytest.raises(ModelError, match="order"):
        path_raw_moments(demo_quality, (1, 1), 5)


def test_path_moments_against_sampling(demo_quality):
    rng = np.random.default_rng(0)
    n = 400_000
    draws = demo_quality.node(1, 1).sample(rng, n) + demo_quality.node(2, 2).sample(rng, n)
    m = path_raw_moments(demo_quality, (1, 2), 3)
    assert np.mean(draws) == pytest.approx(m[1], abs=0.02)
    assert np.mean(draws ** 2) == pytest.approx(m[2], abs=0.08)
    assert np.mean(draws ** 3) == pytest.approx(m[3], abs=0.5)


def test_exact_conditional_moments_demo(demo_kernel, demo_uniform, demo_quality):
    # under the uniform target, node (1, 2) mixes b ~ N(1,3) and b ~ N(-1,2)
    # with weights 1/2, 1/2
    m1, m2 = exact_conditional_moments(demo_uniform, demo_quality, 2, 1)
    assert m1 == pytest.approx(0.0, abs=1e-14)
    assert m2 == pytest.approx(3.5)
    # under the source kernel the same node mixes with weights 3/4, 1/4
    m1q, m2q = exact_conditional_moments(demo_kernel, demo_quality, 2, 1)
    assert m1q == pytest.approx(0.5)
    assert m2q == pytest.approx(3.75)


def test_exact_conditional_moments_null_event():
    kernel = daglm.TransitionKernel(
        initial=np.array([1.0, 0.0]),
        steps=(np.array([[1.0, 0.0], [0.5, 0.5]]),),
    )
    quality = daglm.QualityModel.gaussian_grid(
        daglm.DagSpec(levels=(2, 2)),
        means=np.zeros((2, 2)),
        variances=np.ones((2, 2)),
    )
    with pytest.raises(StatisticalError, match="null event"):
        exact_conditional_moments(kernel, quality, 2, 2)


def test_measure_change_identity_demo(demo_kernel, demo_uniform, demo_quality):
    for j in (1, 2):
        for i in (1, 2):
            for f in ("b", "b2"):
                res = verify_measure_change(
                    demo_kernel, demo_uniform, demo_quality, j, i, f
                )
                assert res <= 1e-10


def test_measure_change_requires_equivalence(demo_kernel, demo_quality):
    blocked = daglm.TransitionKernel(
        initial=np.array([0.5, 0.5]),
        steps=(np.array([[1.0, 0.0], [0.0, 1.0]]),),
    )
    with pytest.raises(ModelError, match="not equivalent"):
        verify_measure_change(demo_kernel, blocked, demo_quality, 1, 1, "b")


@given(seed=st.integers(0, 100_000))
@settings(max_examples=50, deadline=None)
def test_measure_change_identity_random_models(seed):
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, sparsify=0.2)
    for j in range(1, spec.c + 1):
        for i in range(1, spec.levels[j - 1] + 1):
            if daglm.node_marginal(kernel, j, i) <= 1e-15:
                continue
            for f in ("b", "b2"):
                assert verify_measure_change(kernel, target, quality, j, i, f) <= 1e-10


def test_exact_estimator_targets_demo(demo_kernel, demo_uniform, demo_quality):
    means, variances = exact_estimator_targets(demo_kernel, demo_uniform, demo_quality)
    np.testing.assert_allclose(means, [[1.5, 0.0], [-0.5, 1.0]], atol=1e-12)
    np.testing.assert_allclose(variances, [[3.25, 3.5], [2.25, 3.5]], atol=1e-12)
    # within-column differences of the uniform-target means recover the
    # node-mean differences of the quality model
    assert means[0, 0] - means[1, 0] == pytest.approx(2.0)
    assert means[0, 1] - means[1, 1] == pytest.approx(-1.0)
    assert variances[0, 0] - variances[1, 0] == pytest.approx(1.0)
    assert variances[0, 1] - variances[1, 1] == pytest.approx(0.0)


def test_exact_targets_source_kernel(demo_kernel, demo_quality):
    # with target == source the second column's node means coincide, hiding
    # the real difference of 1 between the quality means
    means, _ = exact_estimator_targets(demo_kernel, demo_kernel, demo_quality)
    np.testing.assert_allclose(means, [[1.25, 0.5], [-0.25, 0.5]], atol=1e-12)
    assert means[0, 1] - means[1, 1] == pytest.approx(0.0)


def test_exact_targets_unreachable_nodes_nan():
    kernel = daglm.TransitionKernel(
        initial=np.array([1.0, 0.0]),
        steps=(np.array([[0.5, 0.5], [0.5, 0.5]]),),
    )
    quality = daglm.QualityModel.gaussian_grid(
        daglm.DagSpec(levels=(2, 2)),
        means=np.zeros((2, 2)),
        variances=np.ones((2, 2)),
    )
    means, variances = exact_estimator_targets(kernel, kernel, quality)
    assert np.isnan(means[1, 0]) and np.isnan(variances[1, 0])
    assert np.isfinite(means[0, 0])


@given(seed=st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_targets_match_plain_moments_when_target_is_source(seed):
    rng = np.random.default_rng(seed)
    spec, kernel, _, quality = random_model(rng)
    means, variances = exact_estimator_targets(kernel, kernel, quality)
    for j in range(1, spec.c + 1):
        for i in range(1, spec.levels[j - 1] + 1):
            m1, m2 = exact_conditional_moments(kernel, quality, j, i)
            assert means[i - 1, j - 1] == pytest.approx(m1, abs=1e-10)
            assert variances[i - 1, j - 1] == pytest.approx(m2 - m1 * m1, abs=1e-10)


def scalar_path_moments(quality, path, order):
    """Raw moments of one path's response by a plain binomial convolution."""
    m = [1.0] + [0.0] * order
    for j, lvl in enumerate(path, start=1):
        node = [quality.node(lvl, j).raw_moment(k) for k in range(order + 1)]
        m = [
            sum(math.comb(k, t) * m[t] * node[k - t] for t in range(k + 1))
            for k in range(order + 1)
        ]
    return m


def product_support(kernel, spec):
    """Every path of the spec whose probability factors all exceed the
    support threshold, in itertools.product (lexicographic) order."""
    out = []
    for path in itertools.product(*(range(1, r + 1) for r in spec.levels)):
        factors = [kernel.initial[path[0] - 1]] + [
            kernel.steps[k][path[k] - 1, path[k + 1] - 1] for k in range(spec.c - 1)
        ]
        if all(f > SUPPORT_ZERO for f in factors):
            out.append(path)
    return out


def loop_asym_vars(probs, targets, moments):
    """The four closed-form asymptotic variances (mean/variance, known and
    unknown source) by a loop over the support paths."""
    ratios = [t / p for p, t in zip(probs, targets)]
    mu = ey2 = ex = ex2 = exy = 0.0
    mean_u = var_u = 0.0
    for p, c, m in zip(probs, ratios, moments):
        mu += p * c * m[1]
        ey2 += p * c * c * m[2]
        ex += p * c * m[2]
        ex2 += p * c * c * m[4]
        exy += p * c * c * m[3]
    var_y = ey2 - mu * mu
    var_x = ex2 - ex * ex
    cov = exy - ex * mu
    for p, c, m in zip(probs, ratios, moments):
        var_b = m[2] - m[1] ** 2
        var_b2 = m[4] - m[2] ** 2
        cov_b2_b = m[3] - m[2] * m[1]
        mean_u += c * c * p * var_b
        var_u += c * c * p * (4 * mu * mu * var_b - 4 * mu * cov_b2_b + var_b2)
    return {
        "mean_known": var_y,
        "variance_known": var_x - 4 * mu * cov + 4 * mu * mu * var_y,
        "mean_unknown": mean_u,
        "variance_unknown": var_u,
    }


@given(seed=st.integers(0, 100_000), sparsify=st.sampled_from([0.0, 0.3]))
@settings(max_examples=30, deadline=None)
def test_support_table_matches_per_path_loops(seed, sparsify):
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, sparsify=sparsify)
    support = product_support(kernel, spec)
    assert daglm.enumerate_support_paths(kernel) == support
    avs = {
        "mean_known": asym_var_mean_known,
        "variance_known": asym_var_variance_known,
        "mean_unknown": asym_var_mean_unknown,
        "variance_unknown": asym_var_variance_unknown,
    }
    for j in range(1, spec.c + 1):
        for i in range(1, spec.levels[j - 1] + 1):
            through = [p for p in support if p[j - 1] == i]
            assert daglm.enumerate_support_paths(kernel, j, i) == through
            if not through:
                continue
            paths, _, _ = support_table((kernel, target), quality, j, i, order=4)
            assert list(map(tuple, paths.tolist())) == through
            table = _cell_support(kernel, target, quality, j, i, order=4)
            cond = daglm.conditional_path_probability
            probs = [cond(kernel, p, j, i) for p in through]
            targets = [cond(target, p, j, i) for p in through]
            moments = [scalar_path_moments(quality, p, 4) for p in through]
            np.testing.assert_allclose(table.prob[0], probs, rtol=1e-12, atol=0)
            np.testing.assert_allclose(table.target[0], targets, rtol=1e-12, atol=0)
            np.testing.assert_allclose(table.moments[0], moments, rtol=1e-12, atol=0)
            for p, m in zip(through, moments):
                np.testing.assert_allclose(
                    path_raw_moments(quality, p, 4), m, rtol=1e-12, atol=0
                )

            mixed = [sum(c * m[k] for c, m in zip(probs, moments)) for k in range(1, 5)]
            assert exact_conditional_moments(kernel, quality, j, i, order=4) == (
                pytest.approx(mixed, rel=1e-9, abs=1e-12)
            )
            expected = loop_asym_vars(probs, targets, moments)
            for name, fn in avs.items():
                got = fn(kernel, target, quality, i, j).value
                assert got == pytest.approx(expected[name], rel=1e-9, abs=1e-12), name


def test_unreachable_node_needs_no_quality_spec():
    # level 2 of column 1 has no mass, so node (2, 1) lies on no support
    # path and its quality spec is never read
    kernel = daglm.TransitionKernel(
        initial=np.array([1.0, 0.0]),
        steps=(np.array([[0.5, 0.5], [0.5, 0.5]]),),
    )
    target = daglm.TransitionKernel(
        initial=np.array([1.0, 0.0]),
        steps=(np.array([[0.25, 0.75], [0.9, 0.1]]),),
    )
    nodes = {
        (1, 1): daglm.NodeQuality.gaussian(1.0, 1.0),
        (1, 2): daglm.NodeQuality.gaussian(-1.0, 2.0),
        (2, 2): daglm.NodeQuality.gaussian(3.0, 0.5),
    }
    quality = daglm.QualityModel(nodes=nodes)
    means, variances = exact_estimator_targets(kernel, target, quality)
    assert np.isnan(means[1, 0]) and np.isnan(variances[1, 0])
    reached = np.ones((2, 2), dtype=bool)
    reached[1, 0] = False
    assert np.isfinite(means[reached]).all() and np.isfinite(variances[reached]).all()
    av = asym_var_variance_unknown(kernel, target, quality, 1, 2)
    assert np.isfinite(av.value)
    assert verify_measure_change(kernel, target, quality, 2, 1, "b2") <= 1e-10

    del nodes[(2, 2)]
    missing = daglm.QualityModel(nodes=nodes)
    with pytest.raises(ModelError, match=r"no quality spec for node \(2, 2\)"):
        exact_estimator_targets(kernel, target, missing)
    with pytest.raises(ModelError, match=r"no quality spec for node \(2, 2\)"):
        asym_var_variance_unknown(kernel, target, missing, 2, 2)
    with pytest.raises(ModelError, match=r"no quality spec for node \(2, 2\)"):
        verify_measure_change(kernel, target, missing, 2, 2, "b2")
