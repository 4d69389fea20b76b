import dataclasses
import json
import shutil

import numpy as np
import pytest

import daglm
from daglm import ModelError, StatisticalError
from daglm.simulation import (
    COVERAGE_ALPHA,
    _skewness_and_ks,
    anscombe_study,
    binomial_tail,
    coverage_study,
    load_config,
    resolve_target,
    rng_for,
    sample_dataset,
    sample_paths,
)


def test_rng_streams_keyed_by_seed_and_replicate():
    a = rng_for(17, 0).random(8)
    b = rng_for(17, 0).random(8)
    c = rng_for(17, 1).random(8)
    d = rng_for(18, 0).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_dataset_bitwise_reproducible(demo_config):
    one = sample_dataset(demo_config, 3)
    two = sample_dataset(demo_config, 3)
    assert np.array_equal(one.paths, two.paths)
    assert np.array_equal(one.responses, two.responses)


def test_replicates_independent_of_generation_order(demo_config):
    # simulating replicate 2 alone must match simulating 0..3 in sequence,
    # i.e. nothing leaks between replicate streams (worker-count independence)
    in_order = [sample_dataset(demo_config, rep) for rep in range(4)]
    alone = sample_dataset(demo_config, 2)
    assert np.array_equal(in_order[2].paths, alone.paths)
    assert np.array_equal(in_order[2].responses, alone.responses)
    assert not np.array_equal(in_order[0].responses, in_order[1].responses)


def test_sample_paths_all_valid_and_frequencies_match(demo_spec, demo_kernel):
    rng = rng_for(99)
    paths = sample_paths(demo_kernel, rng, 40_000)
    for row in paths[:50]:
        daglm.validate_path(tuple(int(x) for x in row), demo_spec)
    # empirical path frequencies against the exact law (3/8, 1/8, 1/8, 3/8)
    want = {(1, 1): 3 / 8, (1, 2): 1 / 8, (2, 1): 1 / 8, (2, 2): 3 / 8}
    for path, prob in want.items():
        freq = float((paths == np.asarray(path)).all(axis=1).mean())
        assert freq == pytest.approx(prob, abs=0.01), path


def test_sample_path_single(demo_kernel):
    paths = sample_paths(demo_kernel, rng_for(0), 1)
    assert paths.shape == (1, 2)
    assert all(level in (1, 2) for level in paths[0])


def test_sampling_refuses_unobserved_rows(demo_spec):
    kernel = daglm.TransitionKernel(
        initial=np.array([1.0, 0.0]),
        steps=(np.array([[0.5, 0.5], [np.nan, np.nan]]),),
        unobserved=frozenset({(1, 2)}),
    )
    with pytest.raises(StatisticalError, match="unobserved"):
        sample_paths(kernel, rng_for(0), 10)


def test_response_is_sum_of_node_draws_on_average(demo_config, demo_quality):
    # per-cell response means should track the model's conditional targets
    config = daglm.ExperimentConfig(
        spec=demo_config.spec, kernel=demo_config.kernel, quality=demo_config.quality,
        n=60_000, seed=41,
    )
    data = sample_dataset(config)
    means = daglm.exact_estimator_targets(
        config.kernel, config.kernel, demo_quality
    )[0]
    for j in (1, 2):
        for i in (1, 2):
            sel = data.responses[data.node_mask(j, i)]
            assert float(sel.mean()) == pytest.approx(
                float(means[i - 1, j - 1]), abs=0.05
            ), (i, j)


def test_config_validation(demo_spec, demo_kernel, demo_quality):
    good = dict(spec=demo_spec, kernel=demo_kernel, quality=demo_quality,
                n=10, seed=1)
    daglm.ExperimentConfig(**good)
    with pytest.raises(ModelError, match="sample size"):
        daglm.ExperimentConfig(**{**good, "n": 0})
    with pytest.raises(ModelError, match="replicates"):
        daglm.ExperimentConfig(**{**good, "replicates": 0})
    with pytest.raises(ModelError, match="level"):
        daglm.ExperimentConfig(**{**good, "level": 1.0})
    with pytest.raises(ModelError, match="unknown estimator"):
        daglm.ExperimentConfig(**{**good, "estimators": ("magic",)})


def test_config_refuses_kernel_levels_off_spec(demo_spec, demo_kernel, demo_quality):
    good = dict(spec=demo_spec, kernel=demo_kernel, quality=demo_quality,
                n=10, seed=1)
    wide = daglm.uniform_kernel(daglm.DagSpec(levels=(2, 3)))
    with pytest.raises(ModelError, match=r"^kernel levels \(2, 3\) .*\(2, 2\)"):
        daglm.ExperimentConfig(**{**good, "kernel": wide})
    with pytest.raises(ModelError, match=r"^target kernel levels \(2, 3\) .*\(2, 2\)"):
        daglm.ExperimentConfig(**{**good, "target": wide})


def test_load_config_refuses_target_kernel_of_wrong_shape(tmp_path):
    shutil.copy(daglm.data_path("demo_2x2.json"), tmp_path / "model.json")
    (tmp_path / "target.json").write_text(json.dumps({
        "schema_version": 1,
        "columns": [3, 2],
        "initial": [0.2, 0.3, 0.5],
        "steps": [[[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]],
    }), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "model-ref": "model.json", "n": 50, "seed": 3, "target-kernel": "target.json",
    }), encoding="utf-8")
    with pytest.raises(ModelError, match=r"target kernel levels \(3, 2\) .*\(2, 2\)"):
        load_config(tmp_path / "config.json")


def test_resolve_target(demo_config, demo_uniform, demo_kernel):
    resolved = resolve_target(demo_config)
    assert np.array_equal(resolved.initial, demo_uniform.initial)
    explicit = daglm.ExperimentConfig(
        spec=demo_config.spec, kernel=demo_config.kernel,
        quality=demo_config.quality, n=10, seed=1, target=demo_kernel,
    )
    assert resolve_target(explicit) is demo_kernel
    bad = daglm.ExperimentConfig(
        spec=demo_config.spec, kernel=demo_config.kernel,
        quality=demo_config.quality, n=10, seed=1, target="zipf",
    )
    with pytest.raises(ModelError, match="zipf"):
        resolve_target(bad)


def test_load_config_bundled_demo():
    config = load_config(daglm.data_path("demo_config.json"))
    assert config.n == 2000
    assert config.seed == 17
    assert config.replicates == 200
    assert config.estimators == ("naive", "weighted", "plugin")
    assert config.level == 0.95
    assert config.spec.levels == (2, 2)
    assert config.quality.node(1, 2).mean == pytest.approx(1.0)
    assert config.quality.node(2, 2).mean == pytest.approx(2.0)


def test_load_config_resolves_model_ref_relative_to_config(tmp_path):
    model_doc = json.loads(
        daglm.data_path("demo_2x2.json").read_text(encoding="utf-8")
    )
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "model.json").write_text(json.dumps(model_doc), encoding="utf-8")
    (tmp_path / "config.json").write_text(
        json.dumps({"model-ref": "nested/model.json", "n": 50, "seed": 3}),
        encoding="utf-8",
    )
    config = load_config(tmp_path / "config.json")
    assert config.n == 50
    assert config.spec.levels == (2, 2)


def test_load_config_rejects_bad_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ModelError, match="not found"):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ModelError, match="JSON object"):
        load_config(arr)
    model_doc = json.loads(
        daglm.data_path("demo_2x2.json").read_text(encoding="utf-8")
    )
    (tmp_path / "model.json").write_text(json.dumps(model_doc), encoding="utf-8")
    unknown = tmp_path / "unknown.json"
    unknown.write_text(
        json.dumps({"model-ref": "model.json", "n": 5, "seed": 0, "extra": 1}),
        encoding="utf-8",
    )
    with pytest.raises(ModelError, match="unknown config fields: extra"):
        load_config(unknown)
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"model-ref": "model.json", "n": 5}),
                       encoding="utf-8")
    with pytest.raises(ModelError, match="missing config field 'seed'"):
        load_config(partial)


def test_coverage_study_needs_replicates(demo_config):
    small = dataclasses.replace(demo_config, replicates=99)
    with pytest.raises(StatisticalError, match=">= 100"):
        coverage_study(small)


def test_coverage_study_plugin_mean(demo_config):
    config = daglm.ExperimentConfig(
        spec=demo_config.spec, kernel=demo_config.kernel,
        quality=demo_config.quality, n=800, seed=29, replicates=120,
        nodes=((1, 2),),
    )
    result = coverage_study(config, kind="plugin", which="mean")
    assert result.nodes == ((1, 2),)
    assert result.targets[(1, 2)] == pytest.approx(0.0)
    frac = result.coverage[(1, 2)]
    assert 0.85 <= frac <= 1.0
    # interval endpoints bracket the estimates replicate by replicate
    assert np.all(result.lowers[(1, 2)] <= result.estimates[(1, 2)])
    assert np.all(result.estimates[(1, 2)] <= result.uppers[(1, 2)])
    again = coverage_study(config, kind="plugin", which="mean")
    assert np.array_equal(result.covered[(1, 2)], again.covered[(1, 2)])


def test_binomial_tail_coverage_rule():
    # at R = 100 and level 0.95 a count of 85 covering replicates is
    # explained by the nominal level and 81 is not
    assert binomial_tail(85, 100, 0.95) >= COVERAGE_ALPHA
    assert binomial_tail(81, 100, 0.95) < COVERAGE_ALPHA
    # all replicates covering: the upper tail is P(X = R)
    assert binomial_tail(100, 100, 0.95) == pytest.approx(0.95**100, rel=1e-12)


def test_anscombe_study_needs_replicates(demo_config):
    small = dataclasses.replace(demo_config, replicates=499)
    with pytest.raises(StatisticalError, match=">= 500"):
        anscombe_study(small)


def test_anscombe_study_plugin_mean_looks_normal(demo_config):
    config = daglm.ExperimentConfig(
        spec=demo_config.spec, kernel=demo_config.kernel,
        quality=demo_config.quality, n=600, seed=7, replicates=500,
        nodes=((1, 2),),
    )
    diag = anscombe_study(config, kind="plugin", which="mean")[(1, 2)]
    assert diag.av_value == pytest.approx(3.0)
    assert not diag.degenerate
    assert diag.statistics.shape == (500,)
    assert abs(diag.mean) < 0.2
    assert 0.8 <= diag.variance <= 1.25
    assert abs(diag.skewness) < 0.35
    assert diag.ks_distance < 0.08


def test_skewness_and_ks_match_scipy():
    from scipy import stats as sstats

    rng = np.random.default_rng(2024)
    for k in range(60):
        n = int(rng.integers(500, 3000))
        x = rng.standard_t(5, size=n) * rng.uniform(0.5, 2.0) + rng.normal(0.0, 0.3)
        if k % 3 == 0:
            x = np.round(x, 1)  # ties
        skew, ks = _skewness_and_ks(x)
        assert skew == pytest.approx(sstats.skew(x), rel=1e-12)
        assert ks == pytest.approx(sstats.kstest(x, "norm").statistic, rel=1e-12)
    skew, ks = _skewness_and_ks(np.full(500, 2.0))
    assert np.isnan(skew)
    assert ks == pytest.approx(sstats.norm.cdf(2.0), rel=1e-12)


def test_anscombe_degenerate_when_av_zero(demo_spec, demo_kernel):
    # a per-column point mass makes the response identically 3, so the
    # limiting variance is zero and standardization is skipped and flagged
    quality = daglm.QualityModel(
        nodes={
            (i, j): daglm.NodeQuality.point_mass(float(j))
            for j in (1, 2)
            for i in (1, 2)
        }
    )
    config = daglm.ExperimentConfig(
        spec=demo_spec, kernel=demo_kernel, quality=quality,
        n=50, seed=1, replicates=500, nodes=((1, 2),),
    )
    diag = anscombe_study(config, kind="naive", which="mean")[(1, 2)]
    assert diag.degenerate
    assert np.isnan(diag.ks_distance)
