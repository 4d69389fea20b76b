import csv
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import daglm
from daglm import DataError, ModelError, tabular
from daglm.tabular import (
    DiscretizationRule,
    TabularDataset,
    apply_rules,
    load_table,
    markov_discrepancy,
    quantile_discretize,
    sort_labels,
    write_dataset_csv,
)
from daglm.model import DagSpec, PathDataset

CSV = "supp,dose,len\nVC,0.5,4.2\nOJ,1,19.7\nVC,2,23.6\nOJ,0.5,15.2\n"


def test_load_table_defaults_to_last_column_response():
    table = load_table(io.StringIO(CSV))
    assert table.factor_names == ("supp", "dose")
    assert table.response_name == "len"
    assert table.n == 4
    assert [table.label_rows[k] for k in table.index] == [
        ("VC", "0.5"), ("OJ", "1"), ("VC", "2"), ("OJ", "0.5")
    ]
    assert table.responses[2] == pytest.approx(23.6)


def test_tabular_dataset_refuses_misaligned_columns():
    with pytest.raises(DataError, match="label row of 2 labels for 1 factor names"):
        TabularDataset(("a",), "y", (("1",), ("1", "2")), [0], [1.0])
    with pytest.raises(DataError, match="index out of range for 2 label rows"):
        TabularDataset(("a",), "y", (("1",), ("2",)), [0, 2], [1.0, 2.0])
    with pytest.raises(DataError, match="index out of range for 2 label rows"):
        TabularDataset(("a",), "y", (("1",), ("2",)), [-1, 0], [1.0, 2.0])
    with pytest.raises(DataError, match="index and responses differ in length"):
        TabularDataset(("a",), "y", (("1",), ("2",)), [0, 1], [1.0])


def test_load_table_column_selection():
    table = load_table(io.StringIO(CSV), factor_columns=["dose"],
                       response_column="len")
    assert table.factor_names == ("dose",)
    assert [table.label_rows[k] for k in table.index] == [("0.5",), ("1",), ("2",), ("0.5",)]


def test_load_table_errors():
    with pytest.raises(DataError, match="no header"):
        load_table(io.StringIO(""))
    with pytest.raises(DataError, match="no data rows"):
        load_table(io.StringIO("a,b\n"))
    with pytest.raises(DataError, match="no data rows"):
        load_table(io.StringIO("a,b\n\n\n"))
    with pytest.raises(DataError, match="empty header row"):
        load_table(io.StringIO("\n1,2\n"))
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
    # data rows are numbered over every record after the header, blank ones
    # included
    with pytest.raises(DataError, match="data row 3: 2 fields, expected 3"):
        load_table(io.StringIO("a,b,y\n1,2,3\n\n1,2\n"))
    with pytest.raises(DataError, match="data row 3: non-numeric response 'x'"):
        load_table(io.StringIO("a,b,y\n1,2,3\n\n1,2,x\n"))
    # only finite responses in plain ASCII decimal syntax are read
    with pytest.raises(DataError, match="data row 1: non-finite response 'nan'"):
        load_table(io.StringIO("x,g,y\n1.0,a,nan\n2.0,b,1\n4.0,b,inf\n"))
    with pytest.raises(DataError, match="data row 3: non-finite response ' -inf'"):
        load_table(io.StringIO("a,y\n1,2\n\n1, -inf\n"))
    with pytest.raises(DataError, match="data row 2: non-numeric response '1_0'"):
        load_table(io.StringIO("a,y\n1,2\n1,1_0\n"))
    with pytest.raises(DataError, match="data row 1: non-numeric response '\u0661'"):
        load_table(io.StringIO("a,y\n1,\u0661\n"))


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
    # numbers only Python's float reads (digit-group underscores, non-ASCII
    # digits) make a column sort lexicographically
    assert sort_labels({"1_0", "2", "3"}) == ["1_0", "2", "3"]
    assert sort_labels({"\u0661", "2", "10"}) == ["10", "2", "\u0661"]


def test_sort_labels_with_nan_ignores_input_order():
    # NaN is unordered, so a column with a NaN label sorts lexicographically
    labels = ["1", "2", "10", "nan"]
    orders = {tuple(sort_labels(p)) for p in itertools.permutations(labels)}
    assert orders == {("1", "10", "2", "nan")}
    assert sort_labels(["2", "nan", "1"]) == ["1", "2", "nan"]
    specs = {
        load_table(io.StringIO("g,y\n" + "".join(f"{g},0\n" for g in p)))
        .to_path_dataset()[0]
        for p in itertools.permutations(labels)
    }
    assert specs == {daglm.DagSpec((4,), (("1", "10", "2", "nan"),))}


def test_to_path_dataset_level_mapping():
    spec, data = load_table(io.StringIO(CSV)).to_path_dataset()
    assert spec.levels == (2, 3)
    assert spec.labels == (("OJ", "VC"), ("0.5", "1", "2"))
    # row 0 is VC at dose 0.5: levels (2, 1)
    assert tuple(data.paths[0]) == (2, 1)
    assert tuple(data.paths[1]) == (1, 2)
    assert np.array_equal(data.responses, [4.2, 19.7, 23.6, 15.2])


def test_to_path_dataset_hands_its_arrays_over(monkeypatch):
    # the dataset keeps the fresh path array and the table's responses
    table = load_table(io.StringIO(CSV))
    handed = []
    monkeypatch.setattr(tabular, "PathDataset",
                        lambda spec, paths, responses: handed.append(paths)
                        or daglm.PathDataset(spec, paths, responses))
    _, data = table.to_path_dataset()
    assert np.shares_memory(data.paths, handed[0])
    assert np.shares_memory(data.responses, table.responses)


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
    # x binned, y untouched
    assert [binned.label_rows[k] for k in binned.index] == [("1", "a"), ("1", "b"), ("2", "a")]
    assert np.array_equal(binned.responses, table.responses)
    with pytest.raises(DataError, match="missing column 'z'"):
        apply_rules(table, {"z": rule})
    with pytest.raises(DataError, match="column 'y' is not numeric"):
        apply_rules(table, {"y": rule})


@pytest.mark.parametrize("bad", ["1_0", "\u0661", "\uff11", "abc"])
def test_numeric_column_refuses_python_only_syntax(bad):
    table = load_table(io.StringIO(f"x,y\n 2 ,1\n{bad},2\n3,3\n"))
    with pytest.raises(DataError, match=f"column 'x' is not numeric: .*{bad!r}"):
        table.numeric_column("x")
    assert load_table(io.StringIO("x,y\n 2 ,1\n")).numeric_column("x")[0] == 2.0


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
    spec2, data2 = load_table(out).to_path_dataset()
    assert spec2.levels == demo_spec.levels
    assert np.array_equal(data2.paths, demo_data.paths)
    assert np.array_equal(data2.responses, demo_data.responses)


def test_load_table_holds_no_per_record_lists(tmp_path):
    # 1e5 records of four labels and a response take over 20 MB as
    # per-record lists of strings. The table holds 256 distinct label rows,
    # an int64 index and the responses (1.6 MB); the path dataset adds the
    # (n, 4) int64 levels (3.2 MB), which PathDataset copies once more
    rng = np.random.default_rng(5)
    spec = DagSpec((4, 4, 4, 4))
    n = 100_000
    data = PathDataset(spec, rng.integers(1, 5, size=(n, 4)), rng.normal(size=n))
    path = tmp_path / "big.csv"
    write_dataset_csv(path, spec, data)
    tracemalloc.start()
    try:
        table = load_table(path)
        _, load_peak = tracemalloc.get_traced_memory()
        _, got = table.to_path_dataset()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.paths, data.paths)
    assert got.responses.tobytes() == data.responses.tobytes()
    assert load_peak < 6 * 2**20
    assert peak < 10 * 2**20


def test_bundled_toothgrowth_loads():
    spec, data = load_table(daglm.data_path("toothgrowth.csv")).to_path_dataset()
    assert spec.labels == (("OJ", "VC"), ("0.5", "1", "2"))
    assert data.n == 60
    assert (data.paths[:, 0] == 1).sum() == 30  # thirty OJ rows
    assert (data.paths[:, 1] == 3).sum() == 20  # twenty high-dose rows


# ---------------------------------------------------------------------------
# the columnar loader, mapper and writers against the per-row code they
# replaced, kept here as the reference

def _ref_load_table(text):
    """Per-row ``load_table`` for the default columns (last one the
    response): (factor names, response name, row tuples, responses)."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    rows = [(k, row) for k, row in enumerate(reader, start=1) if row]
    if not rows:
        raise DataError("empty file: no data rows")
    factors, responses = [], []
    for k, row in rows:
        if len(row) != len(header):
            raise DataError(f"data row {k}: {len(row)} fields, expected {len(header)}")
        text = row[-1]
        try:
            if "_" in text or not text.isascii():
                raise ValueError(text)
            value = float(text)
        except ValueError:
            raise DataError(f"data row {k}: non-numeric response {text!r}") from None
        if not math.isfinite(value):
            raise DataError(f"data row {k}: non-finite response {text!r}")
        responses.append(value)
        factors.append(tuple(cell.strip() for cell in row[:-1]))
    return tuple(header[:-1]), header[-1], factors, np.array(responses)


def _ref_to_path_dataset(names, factors, responses, label_order=None):
    orders = []
    for idx, name in enumerate(names):
        seen = [row[idx] for row in factors]
        if label_order is not None and name in label_order:
            order = tuple(str(x) for x in label_order[name])
            missing = sorted(set(seen) - set(order))
            if missing:
                raise DataError(
                    f"column {name!r} has labels {missing} absent from the "
                    "model's label list"
                )
        else:
            order = tuple(sort_labels(set(seen)))
        orders.append(order)
    spec = DagSpec(tuple(len(o) for o in orders), tuple(orders))
    maps = [{lab: k + 1 for k, lab in enumerate(o)} for o in orders]
    paths = np.array(
        [[maps[idx][row[idx]] for idx in range(len(orders))] for row in factors],
        dtype=np.int64,
    ).reshape(len(factors), len(orders))
    return spec, PathDataset(spec, paths, responses)


def _ref_write_rows(header, rows, responses):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row, b in zip(rows, responses):
        writer.writerow(list(row) + [repr(float(b))])
    return out.getvalue()


def _ref_write_dataset_csv(spec, data, factor_names=None):
    if factor_names is None:
        factor_names = [f"factor_{j}" for j in range(1, spec.c + 1)]
    rows = [
        [spec.label(j, int(lvl)) for j, lvl in enumerate(row, start=1)]
        for row in data.paths
    ]
    return _ref_write_rows(list(factor_names) + ["response"], rows, data.responses)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as exc:
        return f"DataError: {exc}"


LABELS = ("1", "2", "10", "0.5", "-3", "1e3", "inf", "nan", "a", "b", "OJ",
          " x", "y ", " 2 ", "a,b", 'say "hi"', "'", "", "a\nb", "\u00e4")
RESPONSES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]),
)
RESPONSE_TEXT = (repr, "{:.6e}".format, " {!r} ".format)
#: response texts that load_table refuses: non-numeric, non-finite, or read
#: as numbers only by Python's float
BAD_RESPONSES = ("tall", "nan", "inf", "1_0", "\u0661")


@st.composite
def csv_texts(draw, messy):
    """A CSV text over tricky labels and responses; ``messy`` adds labels
    that differ only by surrounding spaces, and runs of blank, ragged,
    non-numeric and non-finite records."""
    c = draw(st.integers(1, 3))
    pools = [
        draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
        for _ in range(c)
    ]
    if messy:
        pools = [pool + [f" {pool[0]} "] for pool in pools]
    records = []
    for _ in range(draw(st.integers(1, 8))):
        text = draw(st.sampled_from(RESPONSE_TEXT))(draw(RESPONSES))
        records.append([draw(st.sampled_from(pool)) for pool in pools] + [text])
    for _ in range(draw(st.integers(0, 3)) if messy else 0):
        k = draw(st.integers(0, len(records)))
        kind = draw(st.sampled_from(["blank", "short", "long", *BAD_RESPONSES]))
        if kind == "blank":
            records[k:k] = [[]] * draw(st.integers(1, 4))
        elif k < len(records) and records[k]:
            row = records[k]
            if kind == "short":
                records[k] = row[:-1]
            elif kind == "long":
                records[k] = row + ["1"]
            else:
                records[k] = row[:-1] + [kind]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"f,{j}" for j in range(1, c + 1)] + ["y"])
    for row in records:
        if row:
            writer.writerow(row)
        else:
            out.write("\n")
    return out.getvalue()


def _written(block, write):
    """What ``write(buf)`` writes to a buffer with blocks of ``block``
    records."""
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tabular, "_BLOCK_RECORDS", block)
        write(buf)
    return buf.getvalue()


@given(text=csv_texts(messy=True), block=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
# blank records before a bad row in a later block
@example(text="f,y\na,1\n\n\nb,2\n\n\nb,tall\n", block=2)
@example(text="f,y\na,1\n\nb,2\nb,3\n\n\nb\n", block=3)
# label rows equal after stripping, in one block and across blocks
@example(text="f,g,y\n x ,1,1\nx, 1,2\nx , 1 ,3\ny,1,4\n", block=2)
def test_load_table_matches_per_row_reference(text, block):
    want = _outcome(_ref_load_table, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tabular, "_BLOCK_RECORDS", block)
        got = _outcome(load_table, io.StringIO(text))
    if isinstance(want, str):
        assert got == want
        return
    names, response_name, rows, responses = want
    assert got.factor_names == names
    assert got.response_name == response_name
    # one label row per distinct stripped row, in order of first appearance
    assert got.label_rows == tuple(dict.fromkeys(rows))
    assert [got.label_rows[k] for k in got.index] == rows
    assert got.responses.tobytes() == responses.tobytes()
    assert _written(block, got.write_csv) == _ref_write_rows(
        [*names, response_name], rows, responses
    )


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_write_csv_after_apply_rules_matches_per_row_reference(data):
    n = data.draw(st.integers(1, 8))
    xs = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    labels = data.draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    responses = data.draw(st.lists(RESPONSES, min_size=n, max_size=n))
    breaks = sorted(data.draw(st.sets(st.integers(1, 8), min_size=1, max_size=3)))
    names = data.draw(st.lists(st.sampled_from(LABELS), min_size=3, max_size=3,
                               unique=True))
    records = list(zip(map(str, xs), labels))
    label_rows = list(dict.fromkeys(records))
    table = TabularDataset(tuple(names[:2]), names[2], label_rows,
                           list(map(label_rows.index, records)), responses)
    rule = DiscretizationRule(names[0], len(breaks) + 1, (0, *breaks, 9))
    binned = apply_rules(table, {names[0]: rule})
    # group g holds (breaks[g-1], breaks[g]]; the first also holds breaks[0]
    rows = [(str(1 + sum(b < x for b in breaks)), lab) for x, lab in zip(xs, labels)]
    block = data.draw(st.integers(1, 3))
    assert _written(block, binned.write_csv) == _ref_write_rows(
        names, rows, responses
    )


@given(text=csv_texts(messy=False), data=st.data())
@settings(max_examples=150, deadline=None)
def test_to_path_dataset_matches_per_row_reference(text, data):
    table = load_table(io.StringIO(text))
    names, _, rows, responses = _ref_load_table(text)
    label_order = None
    if data.draw(st.booleans()):
        # pin some columns: a shuffle of the observed labels, plus an unseen
        # one or minus a seen one
        label_order = {}
        for name, col in zip(names, zip(*rows)):
            if data.draw(st.booleans()):
                order = data.draw(st.permutations(sorted(set(col))))
                label_order[name] = data.draw(st.sampled_from(
                    [order, order + ["unseen"], order[1:]]
                ))
    want = _outcome(_ref_to_path_dataset, names, rows, responses, label_order)
    got = _outcome(table.to_path_dataset, label_order)
    if isinstance(want, str):
        assert got == want
        return
    (spec, data_want), (spec_got, data_got) = want, got
    assert spec_got == spec
    assert data_got.paths.dtype == data_want.paths.dtype
    assert np.array_equal(data_got.paths, data_want.paths)
    assert data_got.responses.tobytes() == data_want.responses.tobytes()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_write_dataset_csv_matches_per_row_reference(data):
    levels = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    labels = None
    if data.draw(st.booleans()):
        labels = tuple(
            tuple(data.draw(st.lists(st.sampled_from(LABELS), min_size=r,
                                     max_size=r, unique=True)))
            for r in levels
        )
    spec = DagSpec(tuple(levels), labels)
    n = data.draw(st.integers(0, 8))
    paths = [[data.draw(st.integers(1, r)) for r in levels] for _ in range(n)]
    responses = data.draw(st.lists(RESPONSES, min_size=n, max_size=n))
    dataset = PathDataset(spec, np.array(paths, dtype=np.int64).reshape(n, len(levels)),
                          responses)
    factor_names = data.draw(st.one_of(
        st.none(), st.lists(st.sampled_from(LABELS), min_size=len(levels),
                            max_size=len(levels)),
    ))
    block = data.draw(st.integers(1, 3))
    written = _written(
        block, lambda buf: write_dataset_csv(buf, spec, dataset, factor_names)
    )
    assert written == _ref_write_dataset_csv(spec, dataset, factor_names)
