import gc
import itertools
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import daglm
from daglm import ModelError, StatisticalError, oracle
from daglm.asymptotics import (
    asym_var_mean_known,
    asym_var_mean_unknown,
    asym_var_variance_known,
    asym_var_variance_unknown,
)
from daglm.model import SUPPORT_ZERO
from daglm.oracle import (
    _closed_form_sums,
    exact_conditional_moments,
    exact_estimator_targets,
    path_raw_moments,
    support_table,
    verify_measure_change,
)

from conftest import gaussian_grid, random_model

CLOSED_FORMS = {
    "mean_known": asym_var_mean_known,
    "variance_known": asym_var_variance_known,
    "mean_unknown": asym_var_mean_unknown,
    "variance_unknown": asym_var_variance_unknown,
}


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
    quality = gaussian_grid(
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
    quality = gaussian_grid(
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


def scalar_path_moments(quality, path, order, centred=False):
    """Moments of one path's response by a plain binomial convolution of its
    node moments: raw, or about the column references (moments of b - R)."""
    m = [1.0] + [0.0] * order
    for j, lvl in enumerate(path, start=1):
        if centred:
            node = list(quality._centred_moments(lvl, j, order))
        else:
            node = quality.node(lvl, j).raw_moments(order).tolist()
        m = [
            sum(math.comb(k, t) * m[t] * node[k - t] for t in range(k + 1))
            for k in range(order + 1)
        ]
    return m


def column_references(quality, c):
    """For each column 1..c, the mean of its node means."""
    refs = []
    for j in range(1, c + 1):
        means = [q.mean_value for (_, col), q in quality.nodes.items() if col == j]
        refs.append(sum(means) / len(means))
    return refs


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
    refs = column_references(quality, spec.c)
    assert quality._reference(spec.c) == sum(refs)
    for (i, j), q in quality.nodes.items():
        # a gaussian's odd central moments are 0, so no term of the shift
        # cancels another
        c, d = q._central, q.mean_value - refs[j - 1]
        shifted = [sum(math.comb(k, a) * c[a] * d ** (k - a) for a in range(k + 1))
                   for k in range(5)]
        np.testing.assert_allclose(quality._centred_moments(i, j, 4), shifted, rtol=1e-12, atol=0)
    for j in range(1, spec.c + 1):
        for i in range(1, spec.levels[j - 1] + 1):
            through = [p for p in support if p[j - 1] == i]
            assert daglm.enumerate_support_paths(kernel, j, i) == through
            if not through:
                continue
            paths, (prob, target_prob), table_moments = support_table(
                (kernel, target), quality, j, i, order=4
            )
            assert list(map(tuple, paths.tolist())) == through
            cond = daglm.conditional_path_probability
            probs = [cond(kernel, p, j, i) for p in through]
            targets = [cond(target, p, j, i) for p in through]
            centred = [scalar_path_moments(quality, p, 4, centred=True) for p in through]
            moments = [scalar_path_moments(quality, p, 4) for p in through]
            np.testing.assert_allclose(prob, probs, rtol=1e-12, atol=0)
            np.testing.assert_allclose(target_prob, targets, rtol=1e-12, atol=0)
            np.testing.assert_allclose(table_moments, centred, rtol=1e-12, atol=0)
            for p, m in zip(through, moments):
                np.testing.assert_allclose(
                    path_raw_moments(quality, p, 4), m, rtol=1e-12, atol=0
                )

            mixed = [sum(c * m[k] for c, m in zip(probs, moments)) for k in range(1, 5)]
            assert exact_conditional_moments(kernel, quality, j, i, order=4) == (
                pytest.approx(mixed, rel=1e-9, abs=1e-12)
            )
            expected = loop_asym_vars(probs, targets, moments)
            for name, fn in CLOSED_FORMS.items():
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


# ---------------------------------------------------------------------------
# the forward-backward recursion against the enumeration

def moved_known(known, probs, targets, moments, ref):
    """The known-source asymptotic variances (mean, variance) of the
    response b from ``known``, theirs for u = b - ref, given the path
    moments of u: C b is C u + ref C, and b^2 - 2 mu b is
    phi_u - ref (ref + 2 mu_u) with phi_u = u^2 - 2 mu_u u."""
    tilted = [t * t / p for p, t in zip(probs, targets)]
    mu = sum(t * m[1] for t, m in zip(targets, moments))
    var_c = sum(tilted) - 1.0
    cov_u = sum(w * m[1] for w, m in zip(tilted, moments)) - mu
    phi = [m[2] - 2 * mu * m[1] for m in moments]
    cov_phi = sum(w * f for w, f in zip(tilted, phi)) - sum(t * f for t, f in zip(targets, phi))
    k = ref * (ref + 2 * mu)
    mean, variance = known
    return (mean + 2 * ref * cov_u + ref * ref * var_c,
            variance - 2 * k * cov_phi + k * k * var_c)


def folded_blocks(probs, targets, moments, ref=0.0):
    """The value, the one block per node and its contraction of each closed
    form, by a loop over the support paths, from the path moments of
    b - ``ref``."""
    ratios = [t / p for p, t in zip(probs, targets)]
    mu = sum(t * m[1] for t, m in zip(targets, moments))
    ex = sum(t * m[2] for t, m in zip(targets, moments))
    tilted = [p * c * c for p, c in zip(probs, ratios)]
    ey2, exy, ex2 = (sum(w * m[k] for w, m in zip(tilted, moments)) for k in (2, 3, 4))
    var_b = sum(w * (m[2] - m[1] ** 2) for w, m in zip(tilted, moments))
    cov_b = sum(w * (m[3] - m[2] * m[1]) for w, m in zip(tilted, moments))
    var_b2 = sum(w * (m[4] - m[2] ** 2) for w, m in zip(tilted, moments))
    var_y = ey2 - mu * mu
    values = loop_asym_vars(probs, targets, moments)
    known = (values["mean_known"], values["variance_known"])
    mean_known, variance_known = moved_known(known, probs, targets, moments, ref)
    mean_block, variance_block = moved_known(
        (var_y, ex2 - ex * ex - 4 * mu * (exy - ex * mu) + 4 * mu * mu * var_y),
        probs, targets, moments, ref)
    return {
        "mean_known": (mean_known, [mean_block], [1.0]),
        "variance_known": (variance_known, [variance_block], [1.0]),
        "mean_unknown": (values["mean_unknown"], [var_b], [1.0]),
        "variance_unknown": (values["variance_unknown"],
                             [var_b2 - 4 * mu * cov_b + 4 * mu * mu * var_b], [1.0]),
    }


def enumerated_targets(kernel, target, quality):
    """The estimator targets node by node from the enumerated support."""
    spec = kernel.spec()
    means = np.full((spec.r_max, spec.c), np.nan)
    variances = np.full((spec.r_max, spec.c), np.nan)
    for j, r in enumerate(spec.levels, start=1):
        for i in range(1, r + 1):
            if daglm.node_marginal(kernel, j, i) > SUPPORT_ZERO:
                m1, m2 = exact_conditional_moments(target, quality, j, i)
                means[i - 1, j - 1], variances[i - 1, j - 1] = m1, m2 - m1 * m1
    return means, variances


def enumerated_closed_forms(kernel, target, quality, i, j):
    """The folded blocks of the four closed forms from the enumerated
    support table, with the refusals the enumeration makes."""
    if not daglm.kernels_equivalent(kernel, target):
        raise ModelError("measures not equivalent")
    paths, (p, pt), m = support_table((kernel, target), quality, j, i, order=4)
    if not len(paths):
        raise StatisticalError(f"conditioning on null event: node ({i}, {j}) is unreachable")
    return folded_blocks(p, pt, m, quality._reference(paths.shape[1]))


def enumerated_measure_change(kernel, target, quality, j, i, f):
    """The change-of-measure residual from two enumerated support tables."""
    if not daglm.kernels_equivalent(kernel, target):
        raise ModelError("measures not equivalent")
    order = 1 if f == "b" else 2
    _, (cond_q, cond_t), moments = support_table((kernel, target), quality, j, i, order)
    lhs = float(np.sum(moments[:, order] * (cond_t / cond_q) * cond_q))
    _, (cond_t,), moments = support_table((target,), quality, j, i, order)
    return abs(lhs - float(np.sum(moments[:, order] * cond_t)))


def outcome(fn, *args):
    """The value of a call, or the type and message of its refusal."""
    try:
        return fn(*args)
    except (ModelError, StatisticalError) as exc:
        return type(exc).__name__, str(exc)


def refused(result):
    return isinstance(result, tuple) and isinstance(result[0], str)


def assert_relatively_close(got, want, rel=1e-10):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * scale)


def nodes_of(spec):
    return [(i, j) for j, r in enumerate(spec.levels, start=1) for i in range(1, r + 1)]


@given(seed=st.integers(0, 100_000), sparsify=st.sampled_from([0.0, 0.3]))
@settings(max_examples=30, deadline=None)
def test_recursion_matches_enumeration(seed, sparsify):
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, sparsify=sparsify)
    means, variances = exact_estimator_targets(kernel, target, quality)
    want_means, want_variances = enumerated_targets(kernel, target, quality)
    assert (np.isnan(means) == np.isnan(want_means)).all()
    reached = ~np.isnan(want_means)
    assert_relatively_close(means[reached], want_means[reached])
    assert_relatively_close(variances[reached], want_variances[reached])
    for i, j in nodes_of(spec):
        want = outcome(enumerated_closed_forms, kernel, target, quality, i, j)
        for name, fn in CLOSED_FORMS.items():
            av = outcome(fn, kernel, target, quality, i, j)
            if refused(want):
                assert av == want, name
                continue
            value, blocks, contraction = want[name]
            assert av.value == pytest.approx(value, rel=1e-10, abs=1e-12), name
            assert_relatively_close(av.blocks[0], blocks)
            assert_relatively_close(av.contraction, contraction)
            assert av.value == pytest.approx(
                float(av.contraction @ av.matrix @ av.contraction), rel=1e-10, abs=1e-12)
        for f in ("b", "b2"):
            assert verify_measure_change(kernel, target, quality, j, i, f) <= 1e-10
            assert enumerated_measure_change(kernel, target, quality, j, i, f) <= 1e-10


@given(seed=st.integers(0, 100_000), sparsify=st.sampled_from([0.0, 0.3]),
       shifts=st.lists(st.sampled_from([1e3, 1e5, 1e6]), min_size=4, max_size=4))
@settings(max_examples=20, deadline=None)
def test_exact_layer_is_shift_invariant(seed, sparsify, shifts):
    # adding c_k to the node means of column k moves every target mean by
    # the sum of the c_k and leaves the target variances, the unknown-source
    # closed forms and the measure-change residual where they were; all
    # four closed forms match the enumeration over centred path moments,
    # the known-source ones up to the rounding of k^2 (E[C^2] - 1)
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, sparsify=sparsify)
    moved = daglm.QualityModel({
        (i, j): daglm.NodeQuality.gaussian(q.mean + shifts[j - 1], q.variance)
        for (i, j), q in quality.nodes.items()
    })
    total = sum(shifts[: spec.c])
    means, variances = exact_estimator_targets(kernel, target, quality)
    got_means, got_variances = exact_estimator_targets(kernel, target, moved)
    reached = ~np.isnan(means)
    assert (np.isnan(got_means) == ~reached).all()
    np.testing.assert_allclose(got_means[reached], means[reached] + total,
                               rtol=0, atol=1e-14 * total)
    np.testing.assert_allclose(got_variances[reached], variances[reached], rtol=1e-9)
    for i, j in nodes_of(spec):
        want = outcome(enumerated_closed_forms, kernel, target, moved, i, j)
        for name, fn in CLOSED_FORMS.items():
            got = outcome(fn, kernel, target, moved, i, j)
            if refused(want):
                assert got == want, name
                continue
            rounding = 0.0
            if name.endswith("_unknown"):
                unmoved = fn(kernel, target, quality, i, j).value
                assert got.value == pytest.approx(unmoved, rel=1e-9), name
            elif refused(got):
                # a known-source block that cancels below -PSD_ATOL
                assert "negative asymptotic variance block" in got[1], name
                continue
            else:
                # the known-source forms add k^2 (E[C^2] - 1), k = mu or
                # -mu^2, which both sides round at k^2 E[C^2] times a few
                # ulp: where Var[C] is 0, a far mean is known to no better
                _, (p, pt), _ = support_table((kernel, target), moved, j, i, order=0)
                k2 = got_means[i - 1, j - 1] ** (2 if name == "mean_known" else 4)
                rounding = 1e-14 * k2 * float(pt @ (pt / p))
            assert got.value == pytest.approx(want[name][0], rel=1e-9, abs=rounding), name
        for f in ("b", "b2"):
            assert verify_measure_change(kernel, target, moved, j, i, f) <= 1e-10


@given(seed=st.integers(0, 100_000), sparsify=st.sampled_from([0.0, 0.3]),
       pick=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_recursion_refuses_where_enumeration_does(seed, sparsify, pick):
    # one node loses its quality spec: the nodes whose support paths pass
    # through it refuse, naming it, and every other node does not
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, sparsify=sparsify)
    nodes = dict(quality.nodes)
    gone = sorted(nodes)[pick % len(nodes)]
    del nodes[gone]
    missing = daglm.QualityModel(nodes=nodes)
    got = outcome(exact_estimator_targets, kernel, target, missing)
    want = outcome(enumerated_targets, kernel, target, missing)
    assert got == want if refused(want) else not refused(got)
    seen = set()
    for i, j in nodes_of(spec):
        want = outcome(enumerated_closed_forms, kernel, target, missing, i, j)
        seen.add(refused(want))
        for name, fn in CLOSED_FORMS.items():
            got = outcome(fn, kernel, target, missing, i, j)
            assert got == want if refused(want) else not refused(got), name
        for f in ("b", "b2"):
            got = outcome(verify_measure_change, kernel, target, missing, j, i, f)
            want = outcome(enumerated_measure_change, kernel, target, missing, j, i, f)
            assert got == want if refused(want) else got <= 1e-10
        want = outcome(exact_conditional_moments, target, missing, j, i)
        got = outcome(_closed_form_sums, target, target, missing, j, i, 2)
        assert got == want if refused(want) else not refused(got)
    if sparsify == 0.0:
        assert False in seen  # another level of the deleted node's column never reads it


@given(seed=st.integers(0, 100_000), pick=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_targets_refuse_as_the_first_refusing_node(seed, pick):
    # the target loses a support entry, so some nodes that data reaches are
    # null events under it, and one node loses its quality spec: the
    # targets raise the refusal of the first refusing node in column order
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, sparsify=0.3)
    rows = [(k, row) for k, step in enumerate(target.steps) for row in range(len(step))
            if (step[row] > SUPPORT_ZERO).sum() > 1]
    if rows:
        k, row = rows[pick % len(rows)]
        steps = [s.copy() for s in target.steps]
        steps[k][row, np.flatnonzero(steps[k][row] > SUPPORT_ZERO)[0]] = 0.0
        steps[k][row] /= steps[k][row].sum()
        target = daglm.TransitionKernel(target.initial, tuple(steps))
    nodes = dict(quality.nodes)
    del nodes[sorted(nodes)[pick % len(nodes)]]
    for aim, specs in ((target, quality.nodes), (target, nodes), (kernel, nodes)):
        missing = daglm.QualityModel(nodes=specs)
        got = outcome(exact_estimator_targets, kernel, aim, missing)
        want = outcome(enumerated_targets, kernel, aim, missing)
        if refused(want):
            assert got == want
        else:
            assert (np.isnan(got[0]) == np.isnan(want[0])).all()
            reached = ~np.isnan(want[0])
            assert_relatively_close(got[0][reached], want[0][reached])
            assert_relatively_close(got[1][reached], want[1][reached])


def test_targets_refuse_a_target_of_another_shape():
    spec = daglm.DagSpec(levels=(2, 2))
    quality = gaussian_grid(spec, np.zeros((2, 2)), np.ones((2, 2)))
    other = daglm.uniform_kernel(daglm.DagSpec(levels=(3, 2)))
    with pytest.raises(ModelError, match=r"kernel shape mismatch: \(2, 2\) vs \(3, 2\)"):
        exact_estimator_targets(daglm.uniform_kernel(spec), other, quality)


def grid_model(rng, c, r):
    """A model of c columns of r levels: a kernel with every entry positive,
    and Gaussian nodes of means ``mu`` and variances ``var`` (r, c)."""
    spec = daglm.DagSpec(levels=(r,) * c)

    def distribution():
        raw = rng.uniform(0.1, 1.0, size=r)
        return raw / raw.sum()

    kernel = daglm.TransitionKernel(
        distribution(), tuple(np.stack([distribution() for _ in range(r)]) for _ in range(c - 1))
    )
    mu = rng.normal(0.0, 2.0, size=(r, c))
    var = rng.uniform(0.5, 2.0, size=(r, c))
    return spec, kernel, mu, var, gaussian_grid(spec, mu, var)


def test_recursion_beyond_the_enumeration_cap():
    # 6^10 = 6e7 support paths: the enumeration refuses, the recursion
    # gives every target and every closed form
    spec, kernel, mu, var, quality = grid_model(np.random.default_rng(2026), 10, 6)
    uniform = daglm.uniform_kernel(spec)
    assert math.prod(spec.levels) > daglm.model.ENUMERATION_CAP
    with pytest.raises(ModelError, match="exceeds cap"):
        exact_conditional_moments(uniform, quality, 1, 1)

    means, variances = exact_estimator_targets(kernel, uniform, quality)
    # under the uniform target the columns are independent and uniform
    col_mean = mu.mean(axis=0)
    col_var = (var + mu**2).mean(axis=0) - col_mean**2
    assert_relatively_close(means, mu + col_mean.sum() - col_mean, rel=1e-12)
    assert_relatively_close(variances, var + col_var.sum() - col_var, rel=1e-12)
    for i, j in nodes_of(spec):
        for fn in CLOSED_FORMS.values():
            value = fn(kernel, uniform, quality, i, j).value
            assert math.isfinite(value) and value >= 0.0


# ---------------------------------------------------------------------------
# tables kept per kernel and per quality model

def exact_layer(kernel, target, quality):
    """The targets and, at every node, the four closed forms and the two
    measure-change residuals, each a value or a refusal."""
    targets = outcome(exact_estimator_targets, kernel, target, quality)
    out = [targets if refused(targets) else [t.tobytes() for t in targets]]
    for i, j in nodes_of(kernel.spec()):
        out += node_outcomes(kernel, target, quality, i, j)
    return out


def node_outcomes(kernel, target, quality, i, j):
    """The four closed forms and the two measure-change residuals at one
    node, each a value or a refusal."""
    out = []
    for fn in CLOSED_FORMS.values():
        av = outcome(fn, kernel, target, quality, i, j)
        out.append(av if refused(av) else (av.value, av.blocks.tobytes()))
    return out + [outcome(verify_measure_change, kernel, target, quality, j, i, f)
                  for f in ("b", "b2")]


def rebuilt(kernel):
    return daglm.TransitionKernel(kernel.initial, kernel.steps)


@given(seed=st.integers(0, 100_000), sparsify=st.sampled_from([0.0, 0.3]),
       pick=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_kept_tables_answer_as_fresh_objects(seed, sparsify, pick):
    # one kernel object meets two targets of different support, one of them
    # not equivalent, a third target with its own support, and two quality
    # models, one missing a spec: every value and refusal equals that of
    # freshly built objects, bit for bit
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, sparsify=sparsify)
    entries = [(k, row, col) for k, step in enumerate(target.steps)
               for row, col in zip(*np.nonzero(step > SUPPORT_ZERO))]
    k, row, col = entries[pick % len(entries)]
    steps = [s.copy() for s in target.steps]
    steps[k][row, col] = 0.0
    if steps[k][row].sum() == 0.0:
        steps[k][row, (col + 1) % len(steps[k][row])] = 1.0
    steps[k][row] /= steps[k][row].sum()
    other = daglm.TransitionKernel(target.initial, tuple(steps))
    assert not daglm.kernels_equivalent(kernel, other)
    nodes = dict(quality.nodes)
    on_support = [n for n in sorted(nodes) if daglm.enumerate_support_paths(kernel, n[1], n[0])]
    gone = on_support[pick % len(on_support)]
    del nodes[gone]
    missing = daglm.QualityModel(nodes=nodes)
    for aim, specs in ((target, quality), (other, quality), (kernel, quality),
                       (target, missing), (other, missing), (target, quality)):
        got = exact_layer(kernel, aim, specs)
        want = exact_layer(rebuilt(kernel), rebuilt(aim), daglm.QualityModel(dict(specs.nodes)))
        assert got == want
    assert ("ModelError", "measures not equivalent") in exact_layer(kernel, other, quality)
    assert ("ModelError", f"no quality spec for node {gone}") in exact_layer(kernel, target, missing)


def test_exact_layer_tables_are_built_on_first_use():
    # nothing is built at import, at load or in a constructor: a fresh
    # process has no Cauchy index, and loaded objects no tables and an
    # empty slot, until the first closed form fills them
    src = str(Path(daglm.__file__).resolve().parent.parent)
    code = "from daglm import oracle; print(oracle._cauchy_index.cache_info().currsize)"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=os.environ | {"PYTHONPATH": src})
    assert fresh.stdout.split() == ["0"]
    model = daglm.load_model(daglm.data_path("demo_2x2.json"))
    config = daglm.load_config(daglm.data_path("demo_config.json"))
    tables = {"_entries", "_support", "_marginals", "_on_support"}
    built = (daglm.uniform_kernel(model.spec), daglm.QualityModel(model.quality.nodes))
    for kernel, quality in ((model.kernel, model.quality), (config.kernel, config.quality), built):
        assert not tables & vars(kernel).keys()
        assert not quality._tables and not quality._centred and quality._pair is None
    target = daglm.uniform_kernel(model.spec)
    asym_var_mean_known(model.kernel, target, model.quality, 1, 2)
    assert tables <= vars(model.kernel).keys()
    assert tables - {"_on_support"} <= vars(target).keys()  # read off the source's support
    assert model.quality._tables
    kernel, aim, kept = model.quality._pair
    assert kernel is model.kernel and aim is target and len(kept) == 1
    assert not tables & vars(config.kernel).keys() and not config.quality._tables
    assert config.quality._pair is None


@given(seed=st.integers(0, 100_000), sparsify=st.sampled_from([0.0, 0.3]),
       pick=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_one_slot_answers_interleaved_pairs_as_fresh_objects(seed, sparsify, pick):
    # node by node, one quality object is asked about two (kernel, target)
    # pairs in turn, with a non-equivalent target and a quality model that
    # lost a spec in between: every value and refusal equals that of
    # freshly built objects, bit for bit
    rng = np.random.default_rng(seed)
    spec, kernel, target, quality = random_model(rng, sparsify=sparsify)
    entries = [(k, row, col) for k, step in enumerate(target.steps)
               for row, col in zip(*np.nonzero(step > SUPPORT_ZERO))]
    k, row, col = entries[pick % len(entries)]
    steps = [s.copy() for s in target.steps]
    steps[k][row, col] = 0.0
    if steps[k][row].sum() == 0.0:
        steps[k][row, (col + 1) % len(steps[k][row])] = 1.0
    steps[k][row] /= steps[k][row].sum()
    other = daglm.TransitionKernel(target.initial, tuple(steps))
    assert not daglm.kernels_equivalent(kernel, other)
    nodes = dict(quality.nodes)
    del nodes[sorted(nodes)[pick % len(nodes)]]
    missing = daglm.QualityModel(nodes=nodes)
    for i, j in nodes_of(spec):
        for aim, specs in ((target, quality), (other, quality), (target, missing),
                           (kernel, quality), (target, missing)):
            got = node_outcomes(kernel, aim, specs, i, j)
            fresh = daglm.QualityModel(dict(specs.nodes))
            assert got == node_outcomes(rebuilt(kernel), rebuilt(aim), fresh, i, j)
    assert quality._pair[0] is kernel and quality._pair[1] is kernel


def test_quality_keeps_the_sums_of_one_pair():
    # the slot holds its pair strongly, and lets the first target go once
    # a second pair has been asked about and the caller drops it
    model = daglm.load_model(daglm.data_path("demo_2x2.json"))
    kernel, quality = model.kernel, model.quality
    target = daglm.uniform_kernel(model.spec)
    first = weakref.ref(target)
    asym_var_mean_known(kernel, target, quality, 1, 2)
    del target
    gc.collect()
    assert first() is quality._pair[1]
    asym_var_mean_known(kernel, kernel, quality, 1, 2)
    gc.collect()
    assert first() is None
    assert quality._pair[0] is kernel and quality._pair[1] is kernel


def test_one_pass_per_weighting_and_order(monkeypatch):
    # the four closed forms and both residuals at every node of a random
    # 4 x 5 model run one all-node pass per weighting and order: the tilted
    # pair at orders 2 and 4, and the measure change at orders 1 and 2
    spec, kernel, _, _, quality = grid_model(np.random.default_rng(45), 4, 5)
    target = daglm.uniform_kernel(spec)
    passes = []
    path_sums = oracle._path_sums

    def counted(levels, entries, table, shape):
        passes.append(shape)
        return path_sums(levels, entries, table, shape)

    monkeypatch.setattr(oracle, "_path_sums", counted)
    for i, j in nodes_of(spec):
        for fn in CLOSED_FORMS.values():
            fn(kernel, target, quality, i, j)
        for f in ("b", "b2"):
            verify_measure_change(kernel, target, quality, j, i, f)
    # (order + 1, width): tilted (3, 3) and (5, 3), measure change (2, 1) and (3, 1)
    assert sorted(passes) == [(2, 1), (3, 1), (3, 3), (5, 3)]
