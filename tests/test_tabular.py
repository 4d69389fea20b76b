import io

import numpy as np
import pytest

import daglm
from daglm import DataError, ModelError
from daglm.tabular import (
    DiscretizationRule,
    apply_rules,
    load_dataset,
    load_table,
    markov_discrepancy,
    quantile_discretize,
    sort_labels,
    write_dataset_csv,
)

CSV = "supp,dose,len\nVC,0.5,4.2\nOJ,1,19.7\nVC,2,23.6\nOJ,0.5,15.2\n"


def test_load_table_defaults_to_last_column_response():
    table = load_table(io.StringIO(CSV))
    assert table.factor_names == ("supp", "dose")
    assert table.response_name == "len"
    assert table.n == 4
    assert table.factors[1] == ("OJ", "1")
    assert table.responses[2] == pytest.approx(23.6)


def test_load_table_column_selection():
    table = load_table(io.StringIO(CSV), factor_columns=["dose"],
                       response_column="len")
    assert table.factor_names == ("dose",)
    assert table.column("dose") == ["0.5", "1", "2", "0.5"]


def test_load_table_errors():
    with pytest.raises(DataError, match="no header"):
        load_table(io.StringIO(""))
    with pytest.raises(DataError, match="no data rows"):
        load_table(io.StringIO("a,b\n"))
    with pytest.raises(DataError, match="missing column 'x'"):
        load_table(io.StringIO(CSV), factor_columns=["x"])
    with pytest.raises(DataError, match="missing column 'y'"):
        load_table(io.StringIO(CSV), response_column="y")
    with pytest.raises(DataError, match="both factor and response"):
        load_table(io.StringIO(CSV), factor_columns=["len"])
    with pytest.raises(DataError, match="row 2: 2 fields, expected 3"):
        load_table(io.StringIO("a,b,c\n1,2,3\n1,2\n"))
    with pytest.raises(DataError, match="non-numeric response 'tall'"):
        load_table(io.StringIO("a,b\n1,tall\n"))


def test_load_table_drops_utf8_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + CSV.encode("utf-8"))
    assert load_table(path).factor_names == ("supp", "dose")
    assert load_table(io.StringIO("\ufeff" + CSV)).factor_names == ("supp", "dose")


def test_load_table_refuses_duplicate_names():
    with pytest.raises(DataError, match=r"duplicate column names \['a'\]"):
        load_table(io.StringIO("a,a,y\n1,2,3.0\n"))
    with pytest.raises(DataError, match=r"duplicate column names \['y'\]"):
        load_table(io.StringIO("y,a,y\n1,2,3.0\n"))
    with pytest.raises(DataError, match=r"duplicate column names \['dose'\]"):
        load_table(io.StringIO(CSV), factor_columns=["dose", "dose"])


def test_sort_labels():
    assert sort_labels({"10", "2", "1"}) == ["1", "2", "10"]
    assert sort_labels({"0.5", "2", "1"}) == ["0.5", "1", "2"]
    assert sort_labels({"b", "a", "10"}) == ["10", "a", "b"]
    assert sort_labels({"VC", "OJ"}) == ["OJ", "VC"]


def test_to_path_dataset_level_mapping():
    spec, data = load_dataset(io.StringIO(CSV))
    assert spec.levels == (2, 3)
    assert spec.labels == (("OJ", "VC"), ("0.5", "1", "2"))
    # row 0 is VC at dose 0.5: levels (2, 1)
    assert tuple(data.paths[0]) == (2, 1)
    assert tuple(data.paths[1]) == (1, 2)
    assert np.array_equal(data.responses, [4.2, 19.7, 23.6, 15.2])


def test_to_path_dataset_pinned_label_order():
    table = load_table(io.StringIO(CSV))
    spec, data = table.to_path_dataset({"supp": ("VC", "OJ")})
    assert spec.labels[0] == ("VC", "OJ")
    assert tuple(data.paths[0]) == (1, 1)  # VC is now level 1
    with pytest.raises(DataError, match="absent from the model's label list"):
        table.to_path_dataset({"supp": ("VC",)})


def test_quantile_breaks_match_linear_interpolation_example():
    rule = quantile_discretize(np.arange(1, 101), 5, column="x")
    assert rule.breaks == pytest.approx((1.0, 20.8, 40.6, 60.4, 80.2, 100.0))
    assert rule.groups == 5
    assert rule.column == "x"


def test_quantile_discretize_errors():
    with pytest.raises(ModelError, match="at least 2 groups"):
        quantile_discretize([1.0, 2.0, 3.0], 1)
    with pytest.raises(DataError, match="too few distinct"):
        quantile_discretize([1.0, 1.0, 2.0], 3)
    with pytest.raises(DataError, match="non-finite"):
        quantile_discretize([1.0, float("nan"), 2.0], 2)
    with pytest.raises(DataError, match="not strictly increasing"):
        quantile_discretize([1.0] * 40 + [2.0, 3.0, 4.0, 5.0], 4)
    with pytest.raises(DataError, match="nonempty"):
        quantile_discretize([], 2)


def test_rule_validation():
    with pytest.raises(ModelError, match="3 break points for 3 groups"):
        DiscretizationRule("x", 3, (0.0, 1.0, 2.0))
    with pytest.raises(ModelError, match="strictly increasing"):
        DiscretizationRule("x", 2, (0.0, 1.0, 1.0))


def test_assign_ties_go_to_lower_group():
    rule = DiscretizationRule("x", 3, (0.0, 1.0, 2.0, 3.0))
    got = rule.assign([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    assert list(got) == [1, 1, 1, 2, 2, 3, 3]


def test_assign_out_of_range():
    rule = DiscretizationRule("x", 2, (0.0, 1.0, 2.0))
    with pytest.raises(DataError, match="outside the rule range"):
        rule.assign([0.5, 2.5])
    with pytest.raises(DataError, match="non-finite"):
        rule.assign([0.5, float("inf")])


def test_apply_rules_replaces_with_group_labels():
    csv_text = "x,y,score\n0.1,a,1\n0.9,b,2\n1.7,a,3\n"
    table = load_table(io.StringIO(csv_text))
    rule = DiscretizationRule("x", 2, (0.0, 1.0, 2.0))
    binned = apply_rules(table, {"x": rule})
    assert binned.column("x") == ["1", "1", "2"]
    assert binned.column("y") == ["a", "b", "a"]  # untouched
    assert np.array_equal(binned.responses, table.responses)
    with pytest.raises(DataError, match="missing column 'z'"):
        apply_rules(table, {"z": rule})
    with pytest.raises(DataError, match="column 'y' is not numeric"):
        apply_rules(table, {"y": rule})


def test_markov_discrepancy_zero_when_stepwise():
    # counts factor as f(col1) * h(col2, col3), so the two-step and one-step
    # conditionals agree exactly
    f = {1: 1, 2: 2}
    h = {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 3}
    rows = []
    for a in (1, 2):
        for (b, c), m in h.items():
            rows.extend([[a, b, c]] * (f[a] * m))
    spec = daglm.DagSpec((2, 2, 2))
    data = daglm.PathDataset(spec, np.array(rows), np.zeros(len(rows)))
    assert markov_discrepancy(data) == pytest.approx([0.0])


def test_markov_discrepancy_detects_dependence():
    rows = [[1, 1, 1]] * 4 + [[2, 1, 2]] * 4
    spec = daglm.DagSpec((2, 2, 2))
    data = daglm.PathDataset(spec, np.array(rows), np.zeros(8))
    assert markov_discrepancy(data) == pytest.approx([0.5])


def test_markov_discrepancy_empty_for_two_columns(demo_data):
    assert markov_discrepancy(demo_data) == []


def test_write_dataset_csv_round_trips_bitwise(demo_spec, demo_data, tmp_path):
    out = tmp_path / "data.csv"
    write_dataset_csv(out, demo_spec, demo_data)
    spec2, data2 = load_dataset(out)
    assert spec2.levels == demo_spec.levels
    assert np.array_equal(data2.paths, demo_data.paths)
    assert np.array_equal(data2.responses, demo_data.responses)


def test_bundled_toothgrowth_loads():
    spec, data = load_dataset(daglm.data_path("toothgrowth.csv"))
    assert spec.labels == (("OJ", "VC"), ("0.5", "1", "2"))
    assert data.n == 60
    assert data.count(1, 1) == 30  # thirty OJ rows
    assert data.count(2, 3) == 20  # twenty high-dose rows
