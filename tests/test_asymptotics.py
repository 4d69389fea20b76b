import tracemalloc

import numpy as np
import pytest

import daglm
from daglm import ModelError, NoDataError, StatisticalError
from daglm.asymptotics import (
    PSD_ATOL,
    REGIME_KNOWN,
    REGIME_UNKNOWN,
    _weights_avs,
    asym_var_mean_known,
    asym_var_mean_unknown,
    asym_var_variance_known,
    asym_var_variance_unknown,
    confidence_interval,
    normal_quantile,
    plugin_asym_var,
)
from daglm.estimators import _cell_weights, cell_estimate

from conftest import random_model


def test_mean_known_equals_conditional_variance_when_targets_match(
    demo_kernel, demo_quality
):
    # C is identically 1, so the limit variance is the plain conditional
    # variance of b at the node: 3.5 at node (1, col 2)
    av = asym_var_mean_known(demo_kernel, demo_kernel, demo_quality, 1, 2)
    assert av.value == pytest.approx(3.5)
    assert av.regime == REGIME_KNOWN


def test_mean_known_uniform_target(demo_kernel, demo_uniform, demo_quality):
    # hand computation: E[(bC)^2] - E[bC]^2 with C in {2/3, 2} gives 13/3
    av = asym_var_mean_known(demo_kernel, demo_uniform, demo_quality, 1, 2)
    assert av.value == pytest.approx(13 / 3)


def test_mean_unknown_all_nodes(demo_kernel, demo_uniform, demo_quality):
    # per-path variance mixture against squared conditional target ratios
    want = {(1, 1): 4.0, (2, 1): 8 / 3, (1, 2): 3.0, (2, 2): 11 / 3}
    for (i, j), value in want.items():
        av = asym_var_mean_unknown(demo_kernel, demo_uniform, demo_quality, i, j)
        assert av.value == pytest.approx(value), (i, j)
        assert av.regime == REGIME_UNKNOWN


def test_variance_known_hand_computed(demo_kernel, demo_uniform, demo_quality):
    # node (1, col 2): Var[b^2 C] with zero target mean gives 337/12
    av = asym_var_variance_known(demo_kernel, demo_uniform, demo_quality, 1, 2)
    assert av.value == pytest.approx(337 / 12)
    # node (2, col 2): nonzero target mean brings in the covariance block
    av2 = asym_var_variance_known(demo_kernel, demo_uniform, demo_quality, 2, 2)
    assert av2.value == pytest.approx(473 / 12)


def test_variance_unknown_hand_computed(demo_kernel, demo_uniform, demo_quality):
    av = asym_var_variance_unknown(demo_kernel, demo_uniform, demo_quality, 1, 2)
    assert av.value == pytest.approx(26.0)
    av2 = asym_var_variance_unknown(demo_kernel, demo_uniform, demo_quality, 2, 2)
    assert av2.value == pytest.approx(106 / 3)


def test_variance_unknown_single_path_collapses_to_fourth_moment():
    # a single support path through the node collapses the quadratic form to
    # Var[(b - mu)^2] = m4_central - var^2; for b ~ N(0, 1) that is 2
    spec = daglm.DagSpec(levels=(1, 1))
    kernel = daglm.TransitionKernel(initial=np.array([1.0]), steps=(np.array([[1.0]]),))
    quality = daglm.QualityModel(
        nodes={
            (1, 1): daglm.NodeQuality.point_mass(0.0),
            (1, 2): daglm.NodeQuality.gaussian(0.0, 1.0),
        }
    )
    av = asym_var_variance_unknown(kernel, kernel, quality, 1, 2)
    assert av.value == pytest.approx(2.0)
    del spec


CLOSED_FORMS = {
    "mean-known": asym_var_mean_known,
    "variance-known": asym_var_variance_known,
    "mean-unknown": asym_var_mean_unknown,
    "variance-unknown": asym_var_variance_unknown,
}
PLUG_IN_REGIMES = {"naive": None, "weighted": REGIME_KNOWN, "plugin": REGIME_UNKNOWN}
AV_NAMES = [*CLOSED_FORMS,
            *(f"{kind}-{which}" for kind in PLUG_IN_REGIMES for which in ("mean", "variance"))]


def _av(name, kernel, target, quality, data, i, j):
    if name in CLOSED_FORMS:
        return CLOSED_FORMS[name](kernel, target, quality, i, j)
    kind, which = name.split("-")
    if kind == "naive":
        return _weights_avs(_cell_weights(data, i, j, "naive"), which).row()
    return plugin_asym_var(data, target, i, j, which, PLUG_IN_REGIMES[kind], kernel=kernel)


@pytest.fixture(scope="module")
def av_models(demo_spec, demo_kernel, demo_uniform, demo_quality, demo_data):
    """The demo model and three random models, each with a source sample in
    which every path through a node is seen at least twice."""
    models = [(demo_spec, demo_kernel, demo_uniform, demo_quality, demo_data)]
    for seed in range(3):
        spec, q, t, quality = random_model(np.random.default_rng(seed), max_c=3, max_r=3)
        config = daglm.ExperimentConfig(spec=spec, kernel=q, quality=quality, n=5000,
                                        seed=seed)
        models.append((spec, q, t, quality, daglm.sample_dataset(config, 0)))
    return models


@pytest.mark.parametrize("name", AV_NAMES)
def test_asym_var_matrix_psd_and_contraction_shapes(name, av_models):
    # the dense view built from the blocks is the reference for the value
    # and for positive semidefiniteness
    for spec, q, t, quality, data in av_models:
        for j, r in enumerate(spec.levels, start=1):
            for i in range(1, r + 1):
                av = _av(name, q, t, quality, data, i, j)
                m, c = av.matrix, av.contraction
                assert av.blocks.shape == (c.size, 1)
                assert m.shape == (c.size, c.size)
                assert not m.flags.writeable and not av.blocks.flags.writeable
                scale = max(1.0, float(np.abs(m).max()))
                assert np.linalg.eigvalsh(m).min() >= -PSD_ATOL * scale
                assert av.value == pytest.approx(float(c @ m @ c), rel=1e-12)


def test_asym_var_variance_unknown_memory_is_linear_in_paths():
    # 625 support paths through (1, 1): a dense 1250 x 1250 matrix alone
    # would take 12.5 MB
    spec = daglm.DagSpec(levels=(5,) * 5)
    uniform = daglm.uniform_kernel(spec)
    quality = daglm.QualityModel.gaussian_grid(
        spec, means=np.arange(25.0).reshape(5, 5), variances=np.ones((5, 5))
    )
    tracemalloc.start()
    try:
        asym_var_variance_unknown(uniform, uniform, quality, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_plugin_asym_var_consistent(demo_config):
    config = daglm.ExperimentConfig(
        spec=demo_config.spec, kernel=demo_config.kernel,
        quality=demo_config.quality, n=150_000, seed=5,
    )
    data = daglm.sample_dataset(config, 0)
    u = daglm.uniform_kernel(config.spec)
    est = plugin_asym_var(data, u, 1, 2, "mean", REGIME_UNKNOWN)
    assert est.value == pytest.approx(3.0, rel=0.05)
    est2 = plugin_asym_var(data, u, 1, 2, "mean", REGIME_KNOWN, kernel=config.kernel)
    assert est2.value == pytest.approx(13 / 3, rel=0.05)
    est3 = plugin_asym_var(data, u, 1, 2, "variance", REGIME_UNKNOWN)
    assert est3.value == pytest.approx(26.0, rel=0.08)


def test_plugin_asym_var_requires_replicated_paths(demo_spec, demo_uniform):
    paths = np.array([[1, 1], [1, 1], [2, 1]])
    data = daglm.PathDataset(
        spec=demo_spec, paths=paths, responses=np.array([1.0, 2.0, 3.0])
    )
    with pytest.raises(StatisticalError, match=r"seen once.*\(2, 1\)"):
        plugin_asym_var(data, demo_uniform, 1, 2, "mean", REGIME_UNKNOWN)


def test_naive_asym_var_is_conditional_variance(demo_config):
    data = daglm.sample_dataset(demo_config, 0)
    av = _weights_avs(_cell_weights(data, 1, 2, "naive"), "mean").row()
    sel = data.responses[data.paths[:, 1] == 1]  # node (1, 2)
    assert av.value == pytest.approx(float(np.var(sel)), rel=1e-12)


def test_normal_quantile_reference_values():
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-9)
    with pytest.raises(ModelError):
        normal_quantile(1.5)


def test_normal_quantile_matches_scipy_ndtri():
    from scipy.special import ndtri

    grid = np.concatenate([
        np.linspace(0.5, 1 - 1e-12, 2001)[1:],
        0.5 + np.logspace(-15, -1, 100),
        1 - np.logspace(-12, -1, 100),
    ])
    ours = np.array([normal_quantile(float(p)) for p in grid])
    np.testing.assert_allclose(ours, ndtri(grid), rtol=1e-14, atol=0)


def test_confidence_interval_widths(demo_config, demo_kernel, demo_uniform, demo_quality):
    data = daglm.sample_dataset(demo_config, 0)
    cell = cell_estimate(data, 1, 2, "weighted", demo_kernel, demo_uniform, "uniform")
    av = asym_var_mean_known(demo_kernel, demo_uniform, demo_quality, 1, 2)
    ci = confidence_interval(cell, av, 0.95)
    half = normal_quantile(0.975) * np.sqrt(av.value / cell.count)
    assert ci.upper - ci.lower == pytest.approx(2 * half)
    assert ci.lower <= cell.mean <= ci.upper
    assert ci.level == 0.95
    wider = confidence_interval(cell, av, 0.99)
    assert wider.upper - wider.lower > ci.upper - ci.lower


def test_confidence_interval_validates(demo_config, demo_kernel, demo_uniform, demo_quality):
    data = daglm.sample_dataset(demo_config, 0)
    cell = cell_estimate(data, 1, 2, "weighted", demo_kernel, demo_uniform, "uniform")
    av = asym_var_mean_known(demo_kernel, demo_uniform, demo_quality, 1, 2)
    with pytest.raises(ModelError, match="level"):
        confidence_interval(cell, av, 1.5)
    other = asym_var_mean_known(demo_kernel, demo_uniform, demo_quality, 2, 2)
    with pytest.raises(ModelError, match="node"):
        confidence_interval(cell, other, 0.95)
    empty = daglm.estimators.CellEstimate(
        node=(1, 2), count=0, mean=float("nan"), variance=float("nan"),
        kind="naive",
    )
    with pytest.raises(NoDataError):
        confidence_interval(empty, av, 0.95)


def test_variance_interval_uses_variance_point(demo_config, demo_kernel, demo_uniform,
                                               demo_quality):
    data = daglm.sample_dataset(demo_config, 0)
    cell = cell_estimate(data, 1, 2, "weighted", demo_kernel, demo_uniform, "uniform")
    av = asym_var_variance_known(demo_kernel, demo_uniform, demo_quality, 1, 2)
    ci = confidence_interval(cell, av, 0.95)
    assert ci.lower <= cell.variance <= ci.upper
    mid = 0.5 * (ci.lower + ci.upper)
    assert mid == pytest.approx(cell.variance)
