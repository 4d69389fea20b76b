import json
import math

import numpy as np
import pytest

import daglm
from daglm import ModelError
from daglm.cli import run_command


def demo_doc():
    return {
        "schema_version": 1,
        "columns": [2, 2],
        "labels": [["a1", "a2"], ["b1", "b2"]],
        "initial": [0.5, 0.5],
        "steps": [[[0.75, 0.25], [0.25, 0.75]]],
        "quality": {
            "1,1": {"kind": "gaussian", "mean": 0.0, "variance": 2.0},
            "2,1": {"kind": "gaussian", "mean": -2.0, "variance": 1.0},
            "1,2": {"kind": "gaussian", "mean": 1.0, "variance": 1.0},
            "2,2": {"kind": "gaussian", "mean": 2.0, "variance": 1.0},
        },
    }


def test_model_from_dict_roundtrip():
    model = daglm.model_from_dict(demo_doc())
    assert model.spec.levels == (2, 2)
    assert model.spec.labels == (("a1", "a2"), ("b1", "b2"))
    np.testing.assert_allclose(model.kernel.initial, [0.5, 0.5])
    assert model.quality.node(2, 1).mean_value == -2.0

    doc = daglm.model_to_dict(model.kernel, labels=model.spec.labels,
                              quality=model.quality)
    again = daglm.model_from_dict(doc)
    assert again.spec == model.spec
    np.testing.assert_array_equal(again.kernel.steps[0], model.kernel.steps[0])
    assert again.quality.node(1, 2) == model.quality.node(1, 2)


def test_model_file_roundtrip(tmp_path):
    model = daglm.model_from_dict(demo_doc())
    out = tmp_path / "m.json"
    daglm.save_model(out, model.kernel, labels=model.spec.labels,
                     quality=model.quality)
    loaded = daglm.load_model(out)
    assert loaded.spec == model.spec
    np.testing.assert_array_equal(loaded.kernel.initial, model.kernel.initial)


def test_unknown_top_level_field_rejected():
    doc = demo_doc()
    doc["extra"] = 1
    with pytest.raises(ModelError, match="extra"):
        daglm.model_from_dict(doc)


def test_unknown_quality_field_rejected():
    doc = demo_doc()
    doc["quality"]["1,1"]["scale"] = 2.0
    with pytest.raises(ModelError, match="scale"):
        daglm.model_from_dict(doc)


@pytest.mark.parametrize("kind", ["gamma", ["gaussian"], None])
def test_unknown_quality_kind_rejected(kind):
    doc = demo_doc()
    doc["quality"]["1,1"]["kind"] = kind
    with pytest.raises(ModelError, match=r"quality entry '1,1' has unknown kind"):
        daglm.model_from_dict(doc)


def test_wrong_schema_version_rejected():
    doc = demo_doc()
    doc["schema_version"] = 2
    with pytest.raises(ModelError, match="schema"):
        daglm.model_from_dict(doc)


def test_nan_rejected(tmp_path):
    text = json.dumps(demo_doc()).replace("0.75", "NaN")
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ModelError):
        daglm.load_model(path)


@pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 400], ids=["overflow", "huge-int"])
def test_kernel_entry_must_be_a_finite_number(tmp_path, literal):
    text = json.dumps(demo_doc()).replace("0.75", literal, 1)
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ModelError, match="step 1 row must be a list of finite numbers"):
        daglm.load_model(path)


def test_shape_mismatch_rejected():
    doc = demo_doc()
    doc["initial"] = [1.0]
    with pytest.raises(ModelError):
        daglm.model_from_dict(doc)


def test_nonstochastic_rejected():
    doc = demo_doc()
    doc["steps"] = [[[0.9, 0.3], [0.25, 0.75]]]
    with pytest.raises(ModelError, match="sum"):
        daglm.model_from_dict(doc)


def test_quality_key_out_of_range():
    doc = demo_doc()
    doc["quality"]["3,1"] = {"kind": "point-mass", "value": 1.0}
    with pytest.raises(ModelError):
        daglm.model_from_dict(doc)


def test_all_quality_kinds_roundtrip():
    doc = {
        "columns": [2, 2],
        "initial": [0.5, 0.5],
        "steps": [[[0.5, 0.5], [0.5, 0.5]]],
        "quality": {
            "1,1": {"kind": "bernoulli", "prob": 0.3},
            "2,1": {"kind": "point-mass", "value": 2.0},
            "1,2": {"kind": "empirical-moments", "moments": [1.0, 2.0, 4.0]},
            "2,2": {"kind": "gaussian", "mean": 0.0, "variance": 1.0},
        },
    }
    model = daglm.model_from_dict(doc)
    out = daglm.model_to_dict(model.kernel, quality=model.quality)
    again = daglm.model_from_dict(out)
    assert again.quality.node(1, 1).kind == "bernoulli"
    assert again.quality.node(2, 1).kind == "point-mass"
    assert again.quality.node(1, 2).moments == (1.0, 2.0, 4.0)


@pytest.mark.parametrize("key, entry, field, literal", [
    ("1,1", {"kind": "gaussian", "variance": 1.0}, "mean", "true"),
    ("1,1", {"kind": "gaussian", "variance": 1.0}, "mean", '"1.5"'),
    ("1,1", {"kind": "gaussian", "variance": 1.0}, "mean", '"nan"'),
    ("2,1", {"kind": "gaussian", "variance": 1.0}, "mean", "1e400"),
    ("1,2", {"kind": "gaussian", "mean": 0.0}, "variance", "1e400"),
    ("1,2", {"kind": "gaussian", "mean": 0.0}, "variance", "null"),
    ("2,2", {"kind": "bernoulli"}, "prob", "false"),
    ("2,2", {"kind": "point-mass"}, "value", '"2"'),
    ("2,2", {"kind": "point-mass"}, "value", "1" + "0" * 400),
    ("2,2", {"kind": "empirical-moments"}, "moments", "[1.0, 1e400]"),
    ("2,2", {"kind": "empirical-moments"}, "moments", "[1, " + "1" + "0" * 400 + "]"),
], ids=["mean-true", "mean-string", "mean-string-nan", "mean-overflow", "variance-overflow",
        "variance-null", "prob-false", "value-string", "value-huge-int", "moments-overflow",
        "moments-huge-int"])
def test_quality_field_must_be_a_finite_number(tmp_path, key, entry, field, literal):
    # the schema types every quality field as a number or a list of numbers
    doc = demo_doc()
    doc["quality"][key] = {**entry, field: "LITERAL"}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc).replace('"LITERAL"', literal), encoding="utf-8")
    with pytest.raises(ModelError, match=rf"quality entry '{key}' field '{field}' "
                                         "must be a (list of )?finite number"):
        daglm.load_model(path)
    assert run_command(["validate", "--model", str(path)]) == 3


@pytest.mark.parametrize("moments, lowest", [
    # Var[b^2] = 0.2 - 1 < 0: the Hankel matrix [[1, 0, 1], [0, 1, 0],
    # [1, 0, 0.2]] has eigenvalue 0.6 - sqrt(1.16)
    pytest.param([0.0, 1.0, 0.0, 0.2], "-0.477", id="kurtosis"),
    # Var[b] = 0.5 - 1 < 0, the 2x2 Hankel matrix of m0..m2 only
    pytest.param([1.0, 0.5, 3.0], "-0.5", id="variance"),
    # Var[b] = -1 at mean 1000, judged on the scale m2 = 999999
    pytest.param([1000.0, 999999.0], "-1e-06", id="variance-large-mean"),
    # mean 660, variance 361, third central moment 0 and fourth 0.5 * 361^2
    pytest.param([660.0, 435961.0, 288210780.0, 190690934760.5], "-3.43e-07",
                 id="kurtosis-large-mean"),
])
def test_unrealizable_moments_are_refused_at_load(tmp_path, capsys, moments, lowest):
    refusal = ("moment sequence not realizable: Hankel matrix not positive "
               f"semidefinite (min eigenvalue {lowest})")
    with pytest.raises(ModelError) as info:
        daglm.NodeQuality.from_raw_moments(moments)
    assert str(info.value) == refusal
    doc = demo_doc()
    doc["quality"]["2,1"] = {"kind": "empirical-moments", "moments": moments}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelError) as info:
        daglm.load_model(path)
    assert str(info.value) == f"{path}: quality entry '2,1': {refusal}"
    assert run_command(["validate", "--model", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {path}: quality entry '2,1': {refusal}\n"


@pytest.mark.parametrize("values, probs", [
    ([641.0, 679.0], [0.5, 0.5]),
    ([4999.0, 5000.0, 5001.5], [0.2, 0.5, 0.3]),
    ([660.1], [1.0]),
])
def test_realizable_moments_at_a_large_mean_load(values, probs):
    # distributions on the boundary of realizability (two or three atoms,
    # a point mass) far from zero: the check must not take their rounding
    # for a negative variance or kurtosis
    moments = [sum(p * v**k for v, p in zip(values, probs)) for k in range(1, 5)]
    assert daglm.NodeQuality.from_raw_moments(moments).moments == tuple(moments)


@pytest.mark.parametrize("build", [
    lambda: daglm.NodeQuality.from_raw_moments((math.nan, 1.0)),
    lambda: daglm.NodeQuality.from_raw_moments((0.0, math.inf, 0.0, 1.0)),
    lambda: daglm.NodeQuality.gaussian(math.inf, 1.0),
    lambda: daglm.NodeQuality.gaussian(0.0, math.inf),
])
def test_non_finite_quality_parameters_are_refused(build):
    with pytest.raises(ModelError):
        build()


def test_bundled_demo_model_loads():
    model = daglm.load_model(daglm.data_path("demo_2x2.json"))
    assert model.spec.levels == (2, 2)
    assert model.quality is not None


def test_model_matches_published_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    schema = json.loads(
        resources.files("daglm").joinpath("schemas", "model.schema.json").read_text()
    )
    model = daglm.model_from_dict(demo_doc())
    doc = daglm.model_to_dict(model.kernel, labels=model.spec.labels,
                              quality=model.quality)
    jsonschema.validate(doc, schema)
