import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import daglm
from daglm import simulation, tabular
from daglm.cli import run_command
from daglm.estimators import cell_estimate
from daglm.simulation import load_config, sample_dataset


def report_schema():
    text = (
        resources.files("daglm").joinpath("schemas", "report.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def check_report(doc):
    jsonschema.validate(doc, report_schema(),
                        format_checker=jsonschema.Draft7Validator.FORMAT_CHECKER)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    for name in ("toothgrowth.csv", "caschools.csv", "demo_2x2.json",
                 "demo_config.json"):
        shutil.copy(str(daglm.data_path(name)), root / name)
    return root


def run(argv, capsys):
    code = run_command([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_2(capsys, workdir):
    assert run(["frobnicate"], capsys)[0] == 2
    assert run(["estimate"], capsys)[0] == 2  # missing --data
    assert run(
        ["estimate", "--data", workdir / "toothgrowth.csv", "--level", "1.5"],
        capsys,
    )[0] == 2
    assert run(
        ["kernel", "--data", workdir / "toothgrowth.csv", "--format", "csv"],
        capsys,
    )[0] == 2
    code, _, err = run(
        ["compare", "--data", workdir / "toothgrowth.csv", "--pair", "one,two"],
        capsys,
    )
    assert code == 2
    assert "--pair expects" in err


def test_missing_data_file_exit_3(capsys, workdir):
    code, _, err = run(["estimate", "--data", workdir / "absent.csv"], capsys)
    assert code == 3


def test_model_data_mismatch_exit_3(capsys, workdir):
    # demo model has 2 factor columns; toothgrowth provides supp and dose,
    # but its level counts (2, 3) do not match the model's (2, 2)
    code, _, err = run(
        ["estimate", "--data", workdir / "toothgrowth.csv",
         "--model", workdir / "demo_2x2.json"],
        capsys,
    )
    assert code == 3
    assert "level counts" in err or "labels" in err


def test_weighted_without_model_exit_3(capsys, workdir):
    code, _, err = run(
        ["estimate", "--data", workdir / "toothgrowth.csv",
         "--estimator", "weighted"],
        capsys,
    )
    assert code == 3
    assert "requires --model" in err


def test_duplicate_factor_names_exit_3(capsys, tmp_path):
    data_path = tmp_path / "dup.csv"
    data_path.write_text("a,a,y\n1,1,1.0\n2,2,2.0\n", encoding="utf-8")
    code, _, err = run(["estimate", "--data", data_path, "--estimator", "naive"],
                       capsys)
    assert code == 3
    assert "duplicate column names ['a']" in err


@pytest.mark.parametrize("command", [
    ["estimate", "--estimator", "naive"],
    ["kernel"],
    ["discretize", "--columns", "x", "--groups", "2"],
])
@pytest.mark.parametrize("text, refusal", [
    ("x,g,y\n1.0,a,nan\n2.0,b,1\n3.0,a,2\n4.0,b,inf\n",
     "data row 1: non-finite response 'nan'"),
    ("x,g,y\n1.0,a,1\n\n2.0,b,-inf\n3.0,a,2\n",
     "data row 3: non-finite response '-inf'"),
    ("x,g,y\n1.0,a,1\n2.0,b,1_0\n3.0,a,2\n",
     "data row 2: non-numeric response '1_0'"),
    ("x,g,y\n1.0,a,1\n2.0,b,2\n3.0,a,\u0663\n",
     "data row 3: non-numeric response '\u0663'"),
])
def test_bad_response_exit_3_names_its_row(capsys, tmp_path, command, text, refusal):
    data_path = tmp_path / "bad.csv"
    data_path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    code, _, err = run([*command, "--data", data_path, "--out", out], capsys)
    assert code == 3
    assert refusal in err
    assert not out.exists()


def test_utf8_bom_header_names_columns(capsys, tmp_path):
    data_path = tmp_path / "bom.csv"
    rows = "".join(f"{a},{b},{k}.5\n" for k, (a, b) in enumerate(
        [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")] * 2))
    data_path.write_bytes(b"\xef\xbb\xbf" + f"a,b,y\n{rows}".encode("utf-8"))
    code, out, err = run(
        ["compare", "--data", data_path, "--column", "a", "--estimator", "naive"],
        capsys,
    )
    assert code == 0, err
    check_report(json.loads(out))


def test_target_excluding_observed_path_exit_4(capsys, workdir, tmp_path):
    target = {
        "schema_version": 1,
        "columns": [2, 2],
        "labels": [["a1", "a2"], ["b1", "b2"]],
        "initial": [0.5, 0.5],
        "steps": [[[1.0, 0.0], [0.0, 1.0]]],
    }
    target_path = tmp_path / "diag.json"
    target_path.write_text(json.dumps(target), encoding="utf-8")
    data_path = tmp_path / "obs.csv"
    data_path.write_text(
        "f1,f2,y\n" + "".join(
            f"{a},{b},1.0\n{a},{b},2.0\n"
            for a in ("a1", "a2") for b in ("b1", "b2")
        ),
        encoding="utf-8",
    )
    code, _, err = run(
        ["estimate", "--data", data_path, "--estimator", "plugin",
         "--target-kernel", target_path],
        capsys,
    )
    assert code == 4
    assert "excludes observed path" in err


# ---------------------------------------------------------------------------
# simulate and the bit-for-bit reload invariant

def test_simulate_deterministic_and_seed_override(capsys, workdir, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    base = ["simulate", "--config", workdir / "demo_config.json"]
    assert run(base + ["--out", a], capsys)[0] == 0
    assert run(base + ["--out", b], capsys)[0] == 0
    assert run(base + ["--seed", "99", "--out", c], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_round_trips_quoted_labels_across_blocks(capsys, tmp_path):
    labels = [["a,b", 'say "hi"'], ["", "a\nb"]]
    model = json.loads(daglm.data_path("demo_2x2.json").read_text(encoding="utf-8"))
    (tmp_path / "model.json").write_text(
        json.dumps(model | {"labels": labels}), encoding="utf-8"
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"model-ref": "model.json", "n": tabular._BLOCK_RECORDS + 5, "seed": 3}
    ), encoding="utf-8")
    data_csv = tmp_path / "sim.csv"
    assert run(["simulate", "--config", config_path, "--out", data_csv],
               capsys)[0] == 0
    table = daglm.load_table(data_csv)
    spec, data = table.to_path_dataset(dict(zip(table.factor_names, labels)))
    want = sample_dataset(load_config(config_path), 0)
    assert np.array_equal(data.paths, want.paths)
    assert data.responses.tobytes() == want.responses.tobytes()


def test_short_spec_refusals_name_their_node(capsys, workdir, tmp_path):
    # node (1, 1) holds only m1 and m2: validate skips the variance checks,
    # and simulate cannot draw its values; both name the node
    doc = json.loads((workdir / "demo_2x2.json").read_text(encoding="utf-8"))
    doc["quality"]["1,1"] = {"kind": "empirical-moments", "moments": [0, 2]}
    model = tmp_path / "short.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(
        ["validate", "--model", model, "--n", "50", "--replicates", "5"], capsys,
    )
    assert code == 0, err
    rows = {r["name"]: r for r in json.loads(out)["rows"]}
    assert rows["asymptotic-psd"]["detail"] == (
        "skipped variance-target checks: node (1, 1): moment order 4 not available "
        "(have m1..m2)"
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model-ref": "short.json", "n": 50, "seed": 1}),
                      encoding="utf-8")
    code, out, err = run(["simulate", "--config", config, "--out", tmp_path / "s.csv"],
                         capsys)
    assert code == 3
    assert "node (1, 1): cannot sample from an empirical-moments quality spec" in err


def test_estimate_from_simulated_csv_matches_in_memory(capsys, workdir, tmp_path):
    data_csv = tmp_path / "sim.csv"
    report_json = tmp_path / "report.json"
    assert run(
        ["simulate", "--config", workdir / "demo_config.json",
         "--replicate", "2", "--out", data_csv],
        capsys,
    )[0] == 0
    assert run(
        ["estimate", "--data", data_csv, "--estimator", "naive",
         "--out", report_json],
        capsys,
    )[0] == 0
    doc = json.loads(report_json.read_text(encoding="utf-8"))
    check_report(doc)

    config = load_config(workdir / "demo_config.json")
    data = sample_dataset(config, 2)
    for row in doc["rows"]:
        cell = cell_estimate(data, row["level_index"], row["column"], "naive")
        # exact equality: repr-based CSV and JSON round-trips lose nothing
        assert row["mean"] == cell.mean
        assert row["variance"] == cell.variance
        assert row["count"] == cell.count


def test_target_kernel_file_levels_checked_and_named(capsys, workdir, tmp_path):
    code, _, err = run(
        ["estimate", "--data", workdir / "toothgrowth.csv",
         "--target-kernel", workdir / "demo_2x2.json"],
        capsys,
    )
    assert code == 3
    assert "target kernel levels (2, 2) do not match data (2, 3)" in err
    target = {
        "schema_version": 1,
        "columns": [2, 3],
        "initial": [0.5, 0.5],
        "steps": [[[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]]],
    }
    target_path = tmp_path / "skew.json"
    target_path.write_text(json.dumps(target), encoding="utf-8")
    code, out, err = run(
        ["estimate", "--data", workdir / "toothgrowth.csv",
         "--target-kernel", target_path],
        capsys,
    )
    assert code == 0, err
    assert json.loads(out)["target_kernel"] == "skew.json"


# ---------------------------------------------------------------------------
# estimate / compare reports

def test_estimate_json_report_schema_and_content(capsys, workdir):
    code, out, _ = run(
        ["estimate", "--data", workdir / "toothgrowth.csv"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    check_report(doc)
    assert doc["command"] == "estimate"
    assert doc["estimator"] == "plugin"
    assert doc["target_kernel"] == "uniform"
    assert doc["columns"] == [2, 3]
    assert doc["labels"] == [["OJ", "VC"], ["0.5", "1", "2"]]
    assert len(doc["rows"]) == 5
    by_node = {(r["column"], r["level_index"]): r for r in doc["rows"]}
    assert by_node[(1, 1)]["label"] == "OJ"
    assert by_node[(1, 1)]["count"] == 30
    for row in doc["rows"]:
        assert row["mean_lower"] <= row["mean"] <= row["mean_upper"]


def test_estimate_csv_format(capsys, workdir):
    code, out, _ = run(
        ["estimate", "--data", workdir / "toothgrowth.csv", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("schema_version,command,column,level_index,label")
    assert len(lines) == 6


def test_estimate_bessel_scales_variance(capsys, workdir):
    plain = json.loads(
        run(["estimate", "--data", workdir / "toothgrowth.csv"], capsys)[1]
    )
    bessel = json.loads(
        run(["estimate", "--data", workdir / "toothgrowth.csv", "--bessel"],
            capsys)[1]
    )
    for a, b in zip(plain["rows"], bessel["rows"]):
        scale = a["count"] / (a["count"] - 1)
        assert b["variance"] == a["variance"] * scale
        assert b["variance_se"] == a["variance_se"] * scale
        assert b["mean"] == a["mean"]


def test_compare_bessel_scales_se(capsys, workdir):
    flags = ["--data", workdir / "toothgrowth.csv", "--estimator", "naive", "--bessel"]
    code, out, err = run(["estimate", *flags], capsys)
    assert code == 0, err
    cells = {(r["level_index"], r["column"]): r for r in json.loads(out)["rows"]}
    code, out, err = run(["compare", *flags], capsys)
    assert code == 0, err
    rows = [r for r in json.loads(out)["rows"] if r["which"] == "variance"]
    assert len(rows) == 4  # one pair in supp, three in dose
    for row in rows:
        a = cells[(row["level_a"], row["column"])]
        b = cells[(row["level_b"], row["column"])]
        assert row["difference"] == a["variance"] - b["variance"]
        assert row["se"] ** 2 == pytest.approx(
            a["variance_se"] ** 2 + b["variance_se"] ** 2, rel=1e-12
        )


def test_no_data_rows_flagged(capsys, tmp_path):
    # the model declares level a2 in column 1 but the data never uses it
    model = {
        "schema_version": 1,
        "columns": [2, 2],
        "labels": [["a1", "a2"], ["b1", "b2"]],
        "initial": [0.5, 0.5],
        "steps": [[[0.5, 0.5], [0.5, 0.5]]],
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model), encoding="utf-8")
    data_path = tmp_path / "thin.csv"
    data_path.write_text(
        "f1,f2,y\na1,b1,1.0\na1,b2,2.0\na1,b1,3.0\na1,b2,4.0\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        ["estimate", "--data", data_path, "--model", model_path,
         "--estimator", "naive"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    check_report(doc)
    empty = [r for r in doc["rows"] if r["count"] == 0]
    assert len(empty) == 1
    assert empty[0]["level_index"] == 2
    assert empty[0]["column"] == 1
    assert empty[0]["mean"] is None
    assert empty[0]["flags"] == ["no-data"]


def test_support_incomplete_rows_flagged(capsys, tmp_path):
    # column 1 level 2 and column 2 level 2 are each seen on one of their two
    # uniform-target paths only, so the plugin estimator is undefined there
    data_path = tmp_path / "gap.csv"
    data_path.write_text("a,b,y\n1,1,1\n1,1,2\n1,2,3\n1,2,4\n2,1,5\n2,1,6\n",
                         encoding="utf-8")
    code, out, err = run(
        ["estimate", "--data", data_path, "--estimator", "plugin"], capsys
    )
    assert code == 0, err
    doc = json.loads(out)
    check_report(doc)
    rows = {(r["level_index"], r["column"]): r for r in doc["rows"]}
    for node in ((2, 1), (2, 2)):
        assert rows[node]["flags"] == ["support-incomplete"]
        assert rows[node]["count"] == 2
        assert all(rows[node][k] is None for k in
                   ("mean", "mean_se", "mean_lower", "mean_upper",
                    "variance", "variance_se", "variance_lower", "variance_upper"))
        assert f"node {node}" in err and "target conditional mass 0.5" in err
    _, data = daglm.load_table(data_path).to_path_dataset()
    target = daglm.uniform_kernel(data.spec)
    for i, j in ((1, 1), (1, 2)):
        assert rows[(i, j)]["flags"] == []
        assert rows[(i, j)]["mean"] == cell_estimate(data, i, j, "plugin",
                                                     target=target).mean

    code, out, err = run(
        ["compare", "--data", data_path, "--estimator", "plugin"], capsys
    )
    assert code == 0, err
    doc = json.loads(out)
    check_report(doc)
    assert len(doc["rows"]) == 4
    for row in doc["rows"]:
        assert row["flags"] == ["support-incomplete"]
        assert row["difference"] is None and row["se"] is None


def test_flagged_cells_are_noted_on_stderr_in_node_order(capsys, tmp_path):
    # in both columns, level 1 has a path seen once (no plug-in asymptotic
    # variance), level 2 carries half of its target mass, and level 3,
    # which the target never visits, has no data
    levels = {"columns": [3, 3], "schema_version": 1}
    model = levels | {"labels": [["a1", "a2", "a3"], ["b1", "b2", "b3"]],
                      "initial": [0.4, 0.4, 0.2], "steps": [[[0.4, 0.4, 0.2]] * 3]}
    target = levels | {"initial": [0.5, 0.5, 0.0], "steps": [[[0.5, 0.5, 0.0]] * 3]}
    (tmp_path / "model.json").write_text(json.dumps(model), encoding="utf-8")
    (tmp_path / "target.json").write_text(json.dumps(target), encoding="utf-8")
    data_path = tmp_path / "flags.csv"
    data_path.write_text("f1,f2,y\na1,b1,1\na1,b1,2.5\na1,b2,4\na2,b1,0.5\n",
                         encoding="utf-8")
    seen_once = "insufficient per-path replication for plug-in asymptotics; paths seen once"
    missing = ("carry target conditional mass 0.5, not 1; support paths are missing "
               "from the data")
    notes = (f"note: node (1, 1): {seen_once}: [(1, 2)]\n" * 2
             + f"note: observed paths through node (2, 1) {missing}\n"
             + f"note: node (1, 2): {seen_once}: [(2, 1)]\n" * 2
             + f"note: observed paths through node (2, 2) {missing}\n")
    flags = ["--data", data_path, "--model", tmp_path / "model.json",
             "--target-kernel", tmp_path / "target.json", "--estimator", "plugin"]

    code, out, err = run(["estimate", *flags], capsys)
    assert (code, err) == (0, notes)
    cell_flags = {1: ["mean-ci-unavailable", "variance-ci-unavailable"],
                  2: ["support-incomplete"], 3: ["no-data"]}
    assert [(r["column"], r["level_index"], r["flags"]) for r in json.loads(out)["rows"]] == [
        (j, i, cell_flags[i]) for j in (1, 2) for i in (1, 2, 3)
    ]

    code, out, err = run(["compare", *flags], capsys)
    assert (code, err) == (0, notes)
    pair_flags = {(1, 2): ["support-incomplete"], (1, 3): ["no-data"],
                  (2, 3): ["no-data", "support-incomplete"]}
    assert [(r["column"], r["level_a"], r["level_b"], r["which"], r["flags"])
            for r in json.loads(out)["rows"]] == [
        (j, a, b, which, pair_flags[(a, b)])
        for j in (1, 2) for a, b in pair_flags for which in ("mean", "variance")
    ]


def count_calls(monkeypatch, fn):
    """Count calls to ``fn`` from every daglm module that binds it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("daglm")
                and getattr(mod, fn.__name__, None) is fn):
            monkeypatch.setattr(mod, fn.__name__, counting)
    return calls


@pytest.mark.parametrize("estimator, per_column", [("plugin", 1), ("weighted", 2)])
def test_estimate_computes_each_cells_weights_once(
    capsys, monkeypatch, workdir, tmp_path, estimator, per_column
):
    # the point estimates and both asymptotic variances of every cell of a
    # column share one weights pass per column (the weighted kind needs the
    # source and the target), and each pass runs over the table's distinct
    # paths only: a study's table lists a path once, however many
    # replicates hold it
    data_path = tmp_path / "sim.csv"
    assert run(["simulate", "--config", workdir / "demo_config.json",
                "--out", data_path], capsys)[0] == 0
    calls = count_calls(monkeypatch, daglm.model.path_probabilities)
    code, out, err = run(
        ["estimate", "--data", data_path, "--estimator", estimator,
         "--model", workdir / "demo_2x2.json"],
        capsys,
    )
    assert code == 0, err
    cells = [r for r in json.loads(out)["rows"] if r["count"] > 0]
    assert len(cells) == 4
    assert len(calls) == per_column * len({r["column"] for r in cells})
    assert all(len(paths) <= 4 for _, paths in calls)  # the 2 x 2 demo has four paths
    config = dataclasses.replace(load_config(workdir / "demo_config.json"), n=300, replicates=100)
    table = simulation._replicate_table(config)
    assert len(table.path) > len(table.paths)
    calls.clear()
    simulation.coverage_study(config, estimator)
    assert calls and all(len(paths) <= len(table.paths) for _, paths in calls)


def test_compare_report_and_pair_restriction(capsys, workdir):
    code, out, _ = run(
        ["compare", "--data", workdir / "toothgrowth.csv", "--column", "dose"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    check_report(doc)
    # three level pairs in the dose column, a mean and a variance row each
    assert len(doc["rows"]) == 6
    assert {r["which"] for r in doc["rows"]} == {"mean", "variance"}
    for row in doc["rows"]:
        assert row["lower"] <= row["difference"] <= row["upper"]

    by_index = run(
        ["compare", "--data", workdir / "toothgrowth.csv", "--column", "2"],
        capsys,
    )[1]
    assert json.loads(by_index) == doc

    code, out, _ = run(
        ["compare", "--data", workdir / "toothgrowth.csv", "--column", "dose",
         "--pair", "3,1"],
        capsys,
    )
    assert code == 0
    sub = json.loads(out)
    assert [(r["level_a"], r["level_b"]) for r in sub["rows"]] == [(3, 1), (3, 1)]


def test_compare_same_level_pair_is_exactly_zero(capsys, workdir):
    code, out, _ = run(
        ["compare", "--data", workdir / "toothgrowth.csv", "--column", "supp",
         "--pair", "1,1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    check_report(doc)
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert row["difference"] == 0.0
        # a cell less itself is exactly 0: no standard error, no width
        assert row["se"] == row["lower"] == row["upper"] == 0.0
        assert row["label_a"] == row["label_b"] == "OJ"


# ---------------------------------------------------------------------------
# a shift of the response

@pytest.mark.parametrize("shift", [1e5, 1e6])
@pytest.mark.parametrize("command", ["estimate", "compare"])
@pytest.mark.parametrize("estimator", ["naive", "plugin"])
def test_shifted_responses_move_only_the_means(
    capsys, workdir, tmp_path, shift, command, estimator
):
    # naive and plugin are self-normalised: adding c to every response adds
    # c to each cell mean and leaves every other number as it was, unflagged
    with (workdir / "toothgrowth.csv").open(newline="") as fh:
        header, *records = csv.reader(fh)
    shifted = tmp_path / "shifted.csv"
    with shifted.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(r[:-1] + [repr(float(r[-1]) + shift)] for r in records)
    docs = []
    for path in (workdir / "toothgrowth.csv", shifted):
        code, out, err = run([command, "--data", path, "--estimator", estimator], capsys)
        assert (code, err) == (0, "")
        docs.append(json.loads(out))
    base, moved = docs
    assert len(base["rows"]) == len(moved["rows"])
    # fields built from the means carry the rounding of the shifted
    # responses, about 1e-16 times the shift each
    if command == "estimate":
        from_means, moved_by = ("mean", "mean_lower", "mean_upper"), shift
    else:
        from_means, moved_by = ("difference", "lower", "upper"), 0.0
    for a, b in zip(base["rows"], moved["rows"]):
        assert a["flags"] == b["flags"] == []
        for field, value in a.items():
            if field in from_means and a.get("which", "mean") == "mean":
                expected = pytest.approx(value + moved_by, rel=0.0, abs=1e-14 * shift)
                assert b[field] == expected, field
            elif isinstance(value, float):
                assert b[field] == pytest.approx(value, rel=1e-9), field
            else:
                assert b[field] == value, field


def test_one_record_cells_have_a_zero_variance_se(capsys, workdir):
    # raw caschools has a distinct level per record in both columns, so
    # every cell holds one record and its naive variance AV is exactly 0
    code, out, err = run(
        ["estimate", "--data", workdir / "caschools.csv", "--estimator", "naive"], capsys
    )
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert len(rows) == 840
    assert all(row["count"] == 1 for row in rows)
    assert [row for row in rows if row["flags"]] == []
    assert {row["variance_se"] for row in rows} == {0.0}


def test_check_markov_reports_but_never_blocks(capsys, workdir, tmp_path):
    code, out, err = run(
        ["estimate", "--data", workdir / "toothgrowth.csv", "--check-markov"],
        capsys,
    )
    assert code == 0
    assert "fewer than 3 factor columns" in err
    json.loads(out)

    wide = tmp_path / "wide.csv"
    wide.write_text(
        "f1,f2,f3,y\n" + "".join(
            f"{a},{b},{c},1.5\n"
            for a in ("x", "y") for b in ("x", "y") for c in ("x", "y")
        ) + "x,x,x,9.0\n",
        encoding="utf-8",
    )
    code, out, err = run(
        ["estimate", "--data", wide, "--estimator", "naive", "--check-markov"],
        capsys,
    )
    assert code == 0
    assert "markov check: step 2" in err
    json.loads(out)


# ---------------------------------------------------------------------------
# kernel / discretize / validate

def test_kernel_emits_loadable_model(capsys, workdir, tmp_path):
    out_path = tmp_path / "kern.json"
    code, _, _ = run(
        ["kernel", "--data", workdir / "toothgrowth.csv", "--out", out_path],
        capsys,
    )
    assert code == 0
    model = daglm.load_model(out_path)
    assert model.spec.levels == (2, 3)
    assert model.spec.labels == (("OJ", "VC"), ("0.5", "1", "2"))
    assert model.kernel.initial == pytest.approx([0.5, 0.5])
    for step in model.kernel.steps:
        assert np.allclose(step.sum(axis=1), 1.0)


def test_kernel_refuses_unusable_smoothing(capsys, workdir):
    for value, cause in (("nan", "smoothing must be finite, got nan"),
                         ("1e308", "smoothing 1e+308 overflows")):
        code, out, err = run(
            ["kernel", "--data", workdir / "toothgrowth.csv", "--smoothing", value],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {cause}")
        assert "Warning" not in err


def test_discretize_workflow(capsys, workdir, tmp_path):
    binned_path = tmp_path / "binned.csv"
    rules_path = tmp_path / "rules.json"
    code, _, _ = run(
        ["discretize", "--data", workdir / "caschools.csv",
         "--columns", "english,STR", "--groups", "5",
         "--out", binned_path, "--rules-out", rules_path],
        capsys,
    )
    assert code == 0
    rules = json.loads(rules_path.read_text(encoding="utf-8"))
    check_report(rules)
    assert [r["column"] for r in rules["rows"]] == ["english", "STR"]
    for row in rules["rows"]:
        assert row["groups"] == 5
        assert len(row["breaks"]) == 6
        assert all(a < b for a, b in zip(row["breaks"], row["breaks"][1:]))

    spec, data = daglm.load_table(binned_path).to_path_dataset()
    assert spec.levels == (5, 5)
    assert data.n == 420
    # quintile binning is balanced by construction
    for j in (1, 2):
        for i in range(1, 6):
            assert (data.paths[:, j - 1] == i).sum() == 84


def test_validate_demo_model_passes(capsys, workdir):
    code, out, err = run(
        ["validate", "--model", workdir / "demo_2x2.json",
         "--n", "300", "--replicates", "100"],
        capsys,
    )
    assert code == 0, err
    doc = json.loads(out)
    check_report(doc)
    names = [r["name"] for r in doc["rows"]]
    assert names == [
        "dag-valid", "kernel-rows-stochastic", "measure-change-identity",
        "estimator-targets-finite", "asymptotic-psd", "plugin-mean-coverage",
        "kernel-recovery",
    ]
    assert all(r["passed"] for r in doc["rows"])


def test_validate_model_with_unreachable_level_passes(capsys, workdir, tmp_path):
    # level a2 is never reached, so the sample has no transitions out of it
    # and kernel-recovery compares only the rows it visits
    doc = json.loads((workdir / "demo_2x2.json").read_text(encoding="utf-8"))
    doc["initial"] = [1.0, 0.0]
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(
        ["validate", "--model", model, "--target-kernel", model,
         "--n", "300", "--replicates", "100"],
        capsys,
    )
    assert code == 0, err
    rows = {r["name"]: r for r in json.loads(out)["rows"]}
    assert all(r["passed"] for r in rows.values())
    assert 0 < rows["kernel-recovery"]["value"] < 0.02


def test_validate_reports_a_target_that_misses_a_reached_node(capsys, workdir, tmp_path):
    # the target gives no mass to level 2 of column 1, which the source
    # reaches: the targets row fails with the refusal's text, and the
    # report is still written before validate exits 4
    doc = json.loads((workdir / "demo_2x2.json").read_text(encoding="utf-8"))
    doc["initial"] = [1.0, 0.0]
    target = tmp_path / "t.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "report.json"
    code, out, err = run(
        ["validate", "--model", workdir / "demo_2x2.json", "--target-kernel", target,
         "--n", "300", "--replicates", "100", "--out", report],
        capsys,
    )
    assert code == 4
    doc = json.loads(report.read_text(encoding="utf-8"))
    check_report(doc)
    rows = {r["name"]: r for r in doc["rows"]}
    assert rows["estimator-targets-finite"] == {
        "name": "estimator-targets-finite", "passed": False, "value": None,
        "threshold": None, "detail": "conditioning on null event: node (2, 1) is unreachable",
    }
    failed = [name for name, row in rows.items() if not row["passed"]]
    assert failed == ["measure-change-identity", "estimator-targets-finite"]
    assert err.splitlines()[-1] == f"validation failed: {', '.join(failed)}"


def test_validate_model_with_far_node_means_passes(capsys, workdir, tmp_path):
    # every node mean moved by 1000.1, and kernel entries that are not
    # dyadic, so the moved means and the ratios round: the measure-change
    # residual and the closed forms are read about the column references,
    # and the shift does not reach them
    doc = json.loads((workdir / "demo_2x2.json").read_text(encoding="utf-8"))
    doc["initial"], doc["steps"] = [0.6, 0.4], [[[0.7, 0.3], [0.2, 0.8]]]
    for entry in doc["quality"].values():
        entry["mean"] += 1000.1
    model = tmp_path / "far.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(
        ["validate", "--model", model, "--n", "300", "--replicates", "20"], capsys,
    )
    assert code == 0, err
    rows = {r["name"]: r for r in json.loads(out)["rows"]}
    assert all(r["passed"] for r in rows.values())
    assert rows["measure-change-identity"]["value"] <= 1e-10
    assert rows["asymptotic-psd"]["detail"] == "all contractions nonnegative"


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"), ("--seed", str(2**64)), ("--seed", "x"),
    ("--n", "0"), ("--n", "-1"), ("--replicates", "0"),
])
def test_validate_refuses_invalid_sizes_and_seeds(capsys, workdir, flag, value):
    code, out, err = run(
        ["validate", "--model", workdir / "demo_2x2.json", flag, value], capsys,
    )
    assert (code, out) == (2, "")
    assert f"argument {flag}: " in err


def test_validate_with_few_replicates_skips_coverage(capsys, workdir):
    code, out, err = run(
        ["validate", "--model", workdir / "demo_2x2.json", "--replicates", "1"], capsys,
    )
    assert code == 0, err
    rows = {r["name"]: r for r in json.loads(out)["rows"]}
    assert rows["plugin-mean-coverage"]["passed"]
    assert rows["plugin-mean-coverage"]["detail"].startswith("skipped: ")
    assert rows["kernel-recovery"]["value"] < 0.02


def test_simulate_refuses_seed_and_replicate_outside_64_bits(capsys, workdir):
    for flag in ("--seed", "--replicate"):
        for value in ("-1", str(2**64)):
            code, out, err = run(
                ["simulate", "--config", workdir / "demo_config.json", flag, value],
                capsys,
            )
            assert (code, out) == (2, "")
            assert f"argument {flag}: {value} outside [0, 2^64)" in err


def test_validate_csv_format(capsys, workdir):
    code, out, _ = run(
        ["validate", "--model", workdir / "demo_2x2.json",
         "--n", "300", "--replicates", "100", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "schema_version,command,name,passed,value,threshold,detail"
    assert len(lines) == 8
    assert all(",true," in line for line in lines[1:])


SUBCOMMANDS = ("simulate", "estimate", "compare", "validate", "discretize",
               "kernel")

# What the console script generated from a `module:attr` entry point does:
# import the object, set argv[0] to the script name, sys.exit(object()).
WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint("daglm", sys.argv[1], "console_scripts").load()
sys.argv = ["daglm", *sys.argv[2:]]
sys.exit(main())
"""


def declared_entry_point():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "daglm" in scripts, "pyproject.toml declares no daglm script"
    return scripts["daglm"]


def daglm_env():
    """Environment of a fresh process that imports the daglm under test."""
    src = str(Path(daglm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    return env


def run_daglm_process(argv, cwd, timeout=60):
    """Run argv in a fresh process that imports the daglm under test."""
    return subprocess.run([str(a) for a in argv], capture_output=True,
                          text=True, timeout=timeout, cwd=cwd, env=daglm_env())


@pytest.mark.parametrize("argv", [
    ["estimate", "--data", "toothgrowth.csv", "--estimator", "plugin"],
    ["validate", "--model", "demo_2x2.json"],
])
def test_closed_stdout_pipe_exits_1_without_traceback(workdir, argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "daglm.cli", *argv], cwd=workdir, env=daglm_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # the reader goes away before the report is written (the interpreter
    # alone takes longer than this to start)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def check_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: daglm")
    # argparse lists the subparser choices as {simulate,estimate,...}
    choices = re.search(r"\{([^}]*)\}", proc.stdout)
    assert choices is not None, proc.stdout
    assert set(SUBCOMMANDS) <= set(choices.group(1).split(","))


def test_console_script_installed(workdir):
    entry_point = declared_entry_point()
    assert entry_point == "daglm.cli:main"
    check_help(run_daglm_process(
        [sys.executable, "-c", WRAPPER, entry_point, "--help"], workdir
    ))

    proc = run_daglm_process(
        [sys.executable, "-m", "daglm.cli", "estimate",
         "--data", workdir / "toothgrowth.csv"],
        workdir, timeout=120,
    )
    assert proc.returncode == 0
    check_report(json.loads(proc.stdout))


@pytest.mark.skipif(shutil.which("daglm") is None,
                    reason="no daglm executable on PATH (package not installed)")
def test_console_script_on_path(workdir):
    check_help(run_daglm_process(["daglm", "--help"], workdir))


def test_import_loads_no_scipy(workdir):
    proc = run_daglm_process([sys.executable, "-c", (
        "import sys, daglm, daglm.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )], workdir)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
