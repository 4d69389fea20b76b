import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest

import daglm
from daglm import ModelError, StatisticalError
from daglm import simulation
from daglm.cli import run_command
from daglm.simulation import (
    COVERAGE_ALPHA,
    _effective_target,
    _skewness_and_ks,
    anscombe_study,
    binomial_tail,
    coverage_study,
    load_config,
    rng_for,
    sample_dataset,
)


def test_rng_streams_keyed_by_seed_and_replicate():
    a = rng_for(17, 0).random(8)
    b = rng_for(17, 0).random(8)
    c = rng_for(17, 1).random(8)
    d = rng_for(18, 0).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_dataset_hands_its_arrays_over(monkeypatch, demo_config):
    drawn = []
    sample = simulation._sample_block
    monkeypatch.setattr(simulation, "_sample_block",
                        lambda *args: drawn.append(sample(*args)) or drawn[-1])
    data = sample_dataset(demo_config, 3)
    _, paths, responses = drawn[0]
    assert np.shares_memory(data.paths, paths) and np.shares_memory(data.responses, responses)


def test_sample_dataset_bitwise_reproducible(demo_config):
    one = sample_dataset(demo_config, 3)
    two = sample_dataset(demo_config, 3)
    assert np.array_equal(one.paths, two.paths)
    assert np.array_equal(one.responses, two.responses)


def _mixed_quality_config():
    """A 2 x 3 x 2 model whose nodes mix gaussian, bernoulli and point-mass
    qualities, so every sampling branch draws."""
    Q = daglm.NodeQuality
    return daglm.ExperimentConfig(
        spec=daglm.DagSpec(levels=(2, 3, 2)),
        kernel=daglm.TransitionKernel(
            initial=np.array([0.3, 0.7]),
            steps=(np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]),
                   np.array([[0.5, 0.5], [0.9, 0.1], [0.25, 0.75]])),
        ),
        quality=daglm.QualityModel(nodes={
            (1, 1): Q.gaussian(0.5, 2.0), (2, 1): Q.bernoulli(0.3),
            (1, 2): Q.point_mass(-1.5), (2, 2): Q.gaussian(2.0, 0.5),
            (3, 2): Q.bernoulli(0.8), (1, 3): Q.bernoulli(0.5),
            (2, 3): Q.point_mass(4.0),
        }),
        n=1500,
        seed=2024,
    )


# sha256 of the little-endian bytes of (paths, responses); any change to
# the sampler that moves a single drawn value changes them
SAMPLE_HASHES = {
    ("demo", 0): ("89b53af80c6ae0ce4a661c7009667d0ea4e3444b4496748d98f1d8b265aab005",
                  "a53aecfd1158ca889969e1a18bd4b4074b108b650eac97487314b0e32db38cb8"),
    ("demo", 3): ("3a64dad9567e29d4bf3d435433480c0bf8f1debe9a22b4b05449655770188d40",
                  "b0c2160b25f1cd9269dbfbc00a82c1eb5e90b90d27845bc4fdba0ddf64d2a496"),
    ("mixed", 0): ("1f8460c4267a5d99f5117017857a282d6965d5ed03c3ee808cacdf3c9564e6d9",
                   "0c7d0ea329c82bc417b7563109cf055e64435956b63c97435bcf0ac719f5d916"),
    ("mixed", 5): ("4a723b2b746c6fc2cbfc0a44253330226f293e157f42f636ef441164126d0af9",
                   "c754ca2f92bc0d8192fbe454cac4c58070ab013d6a41fef5bc5852f074210c56"),
}


@pytest.mark.parametrize("name, replicate", sorted(SAMPLE_HASHES))
def test_sample_dataset_bytes_pinned(name, replicate):
    if name == "demo":
        config = load_config(daglm.data_path("demo_config.json"))
    else:
        config = _mixed_quality_config()
    data = sample_dataset(config, replicate)
    got = tuple(
        hashlib.sha256(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
        .hexdigest()
        for a in (data.paths, data.responses)
    )
    assert got == SAMPLE_HASHES[(name, replicate)]


def test_replicates_independent_of_generation_order(demo_config):
    # simulating replicate 2 alone must match simulating 0..3 in sequence,
    # i.e. nothing leaks between replicate streams (worker-count independence)
    in_order = [sample_dataset(demo_config, rep) for rep in range(4)]
    alone = sample_dataset(demo_config, 2)
    assert np.array_equal(in_order[2].paths, alone.paths)
    assert np.array_equal(in_order[2].responses, alone.responses)
    assert not np.array_equal(in_order[0].responses, in_order[1].responses)


def test_sample_paths_all_valid_and_frequencies_match(demo_spec, demo_config):
    config = dataclasses.replace(demo_config, n=40_000, seed=99)
    paths = sample_dataset(config).paths
    for row in paths[:50]:
        daglm.validate_path(tuple(int(x) for x in row), demo_spec)
    # empirical path frequencies against the exact law (3/8, 1/8, 1/8, 3/8)
    want = {(1, 1): 3 / 8, (1, 2): 1 / 8, (2, 1): 1 / 8, (2, 2): 3 / 8}
    for path, prob in want.items():
        freq = float((paths == np.asarray(path)).all(axis=1).mean())
        assert freq == pytest.approx(prob, abs=0.01), path


def test_sample_path_single(demo_config):
    paths = sample_dataset(dataclasses.replace(demo_config, n=1, seed=0)).paths
    assert paths.shape == (1, 2)
    assert all(level in (1, 2) for level in paths[0])


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
            sel = data.responses[data.paths[:, j - 1] == i]
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


@pytest.mark.parametrize("node", [(3, 1), (1, 5), (0, 1), (1, 0)])
def test_config_refuses_nodes_off_spec(demo_config, node):
    with pytest.raises(ModelError, match=rf"^node \({node[0]}, {node[1]}\) outside spec$"):
        dataclasses.replace(demo_config, nodes=((1, 1), node))


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
    # a config resolves its target once, when it is built: "uniform" to
    # the uniform kernel of its spec, a kernel to itself, and an unknown
    # name is refused there; a study's target is the config's, except the
    # source kernel for naive
    resolved = _effective_target(demo_config, "plugin")
    assert resolved is demo_config.target
    assert np.array_equal(resolved.initial, demo_uniform.initial)
    assert dataclasses.replace(demo_config, n=10).target is resolved
    assert _effective_target(demo_config, "naive") is demo_config.kernel
    explicit = daglm.ExperimentConfig(
        spec=demo_config.spec, kernel=demo_config.kernel,
        quality=demo_config.quality, n=10, seed=1, target=demo_kernel,
    )
    assert _effective_target(explicit, "plugin") is demo_kernel
    with pytest.raises(ModelError, match=r"^unknown target kernel 'zipf'$"):
        daglm.ExperimentConfig(
            spec=demo_config.spec, kernel=demo_config.kernel,
            quality=demo_config.quality, n=10, seed=1, target="zipf",
        )


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


def test_load_config_rejects_bad_files(tmp_path, capsys):
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
    # n, seed and replicates are JSON integers, never truncated or coerced
    for field, value in [("n", 2.7), ("n", True), ("n", "40"), ("seed", 1.5),
                         ("seed", False), ("replicates", 2.5), ("replicates", "3")]:
        inexact = tmp_path / "inexact.json"
        inexact.write_text(json.dumps({"model-ref": "model.json", "n": 5, "seed": 0,
                                       field: value}), encoding="utf-8")
        with pytest.raises(ModelError, match=rf"inexact.json: config field '{field}' "
                                             rf"must be an integer, got {value!r}"):
            load_config(inexact)
        argv = ["simulate", "--config", str(inexact), "--out", str(tmp_path / "out.csv")]
        assert run_command(argv) == 3
    # level is a JSON number and estimators a list of strings, never coerced
    for field, value, kind in [("level", "0.9", "a number"), ("level", True, "a number"),
                               ("level", None, "a number"), ("level", [0.9], "a number"),
                               ("estimators", "plugin", "a list of strings"),
                               ("estimators", ["plugin", 1], "a list of strings"),
                               ("estimators", {"plugin": 1}, "a list of strings")]:
        mistyped = tmp_path / "mistyped.json"
        mistyped.write_text(json.dumps({"model-ref": "model.json", "n": 5, "seed": 0,
                                        field: value}), encoding="utf-8")
        with pytest.raises(ModelError) as info:
            load_config(mistyped)
        assert str(info.value) == (
            f"{mistyped}: config field '{field}' must be {kind}, got {value!r}"
        )
        argv = ["simulate", "--config", str(mistyped), "--out", str(tmp_path / "out.csv")]
        assert run_command(argv) == 3
    # a well-typed value that the config refuses names the file
    for field, text, refusal in [("level", "1.5", "level 1.5 outside (0, 1)"),
                                 ("estimators", '["foo"]', "unknown estimator 'foo'"),
                                 ("level", "1e400", "level inf outside (0, 1)")]:
        refused = tmp_path / "refused.json"
        refused.write_text(f'{{"model-ref": "model.json", "n": 5, "seed": 0, "{field}": {text}}}',
                           encoding="utf-8")
        with pytest.raises(ModelError) as info:
            load_config(refused)
        assert str(info.value) == f"{refused}: {refusal}"
        argv = ["simulate", "--config", str(refused), "--out", str(tmp_path / "out.csv")]
        capsys.readouterr()
        assert run_command(argv) == 3
        assert capsys.readouterr().err == f"error: {refused}: {refusal}\n"


def test_config_refuses_empty_estimators(capsys, demo_config, tmp_path):
    # an empty estimators list is refused where the config is built, not
    # by the first study that reads config.estimators[0]
    refusal = "estimators must name at least one estimator, got []"
    with pytest.raises(ModelError) as info:
        dataclasses.replace(demo_config, estimators=())
    assert str(info.value) == refusal
    shutil.copy(daglm.data_path("demo_2x2.json"), tmp_path / "model.json")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"model-ref": "model.json", "n": 5, "seed": 0,
                                 "estimators": []}), encoding="utf-8")
    with pytest.raises(ModelError) as info:
        load_config(empty)
    assert str(info.value) == f"{empty}: {refusal}"
    capsys.readouterr()
    assert run_command(["simulate", "--config", str(empty),
                        "--out", str(tmp_path / "out.csv")]) == 3
    assert capsys.readouterr().err == f"error: {empty}: {refusal}\n"
    assert not (tmp_path / "out.csv").exists()


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


def test_studies_refuse_unknown_kind_or_statistic_before_sampling(monkeypatch, demo_config):
    def refuse(*args):
        raise AssertionError("sampled before checking the arguments")

    monkeypatch.setattr(simulation, "_sample_block", refuse)
    config = dataclasses.replace(demo_config, replicates=500)
    for study in (coverage_study, anscombe_study):
        with pytest.raises(ModelError, match=r"^unknown estimator kind 'median'$"):
            study(config, "median")
        with pytest.raises(ModelError,
                           match=r"^which must be 'mean' or 'variance', got 'median'$"):
            study(config, "plugin", which="median")


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
