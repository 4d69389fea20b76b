"""Tabular ingestion: CSV loading, label-to-level mapping, and quantile
discretization of numeric covariates.

Input files are comma-separated UTF-8 text with a mandatory header row and
``.`` as the decimal separator. Responses must be finite numbers in plain
ASCII decimal syntax. A table holds each distinct row of factor labels once,
plus one row index and one response per record. CSV records are read and
written in blocks of ``_BLOCK_RECORDS``: reading codes each block's label
rows through one dict and parses its responses with one numpy call, and no
per-record Python object outlives its block; writing quotes each distinct
label row once. Factor labels are mapped to level indices by sorting the
distinct labels of each column: numerically when every label is a plain
ASCII decimal number other than NaN, lexicographically otherwise. That
ordering is part of the reported output (level indices appear in pairwise
reports), so it is fixed here rather than left to file order.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ModelError
from .model import DagSpec, PathDataset, _frozen, _joint_counts, _path_cells

#: records per block of CSV input and output. A block's few hundred row
#: lists are freed before the cyclic garbage collector (gen-0 threshold 700
#: allocations) can promote them, so no full collection walks them.
_BLOCK_RECORDS = 2**9


@dataclass(frozen=True)
class TabularDataset:
    """Factor labels plus numeric responses: the rows of stripped labels,
    and per record the index of its label row and its response.

    Record k has the labels ``label_rows[index[k]]`` and the response
    ``responses[k]``. Every label row belongs to at least one record;
    :func:`load_table` keeps the rows distinct, in order of first appearance.
    """

    factor_names: tuple[str, ...]
    response_name: str
    label_rows: tuple[tuple[str, ...], ...]  # one label per factor
    index: np.ndarray  # int64, one label row per record
    responses: np.ndarray

    def __post_init__(self):
        factor_names = tuple(self.factor_names)
        # tuple() of a tuple is the same object, so rows built by load_table
        # are not copied
        label_rows = tuple(map(tuple, self.label_rows))
        index = np.array(self.index, dtype=np.int64)
        responses = np.array(self.responses, dtype=float)
        widths = set(map(len, label_rows)) - {len(factor_names)}
        if widths:
            raise DataError(
                f"label row of {min(widths)} labels for "
                f"{len(factor_names)} factor names"
            )
        if index.ndim != 1 or index.shape != responses.shape:
            raise DataError("index and responses differ in length")
        if index.size and (index.min() < 0 or index.max() >= len(label_rows)):
            raise DataError(f"index out of range for {len(label_rows)} label rows")
        index.setflags(write=False)
        responses.setflags(write=False)
        object.__setattr__(self, "factor_names", factor_names)
        object.__setattr__(self, "label_rows", label_rows)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "responses", responses)

    @property
    def n(self) -> int:
        return len(self.responses)

    def _factor_index(self, name: str) -> int:
        try:
            return self.factor_names.index(name)
        except ValueError:
            raise DataError(f"missing column {name!r}") from None

    def _row_labels(self, idx: int) -> list[str]:
        """The label of factor column ``idx`` in each label row."""
        return [row[idx] for row in self.label_rows]

    def _row_values(self, name: str) -> np.ndarray:
        """Column ``name`` parsed as floats, one per label row."""
        try:
            return _parse_floats(self._row_labels(self._factor_index(name)))
        except ValueError as exc:
            raise DataError(f"column {name!r} is not numeric: {exc}") from None

    def numeric_column(self, name: str) -> np.ndarray:
        """Column ``name`` parsed as floats, one per record (read-only)."""
        values = self._row_values(name)[self.index]
        values.setflags(write=False)
        return values

    def to_path_dataset(
        self, label_order: dict[str, tuple[str, ...]] | None = None
    ) -> tuple[DagSpec, PathDataset]:
        """Map labels to 1-based levels and return the spec plus dataset.

        ``label_order`` optionally pins the level order of named columns
        (used to align data with a model file's labels); every observed
        label must then appear in the given order.
        """
        orders: list[tuple[str, ...]] = []
        levels = np.empty((len(self.label_rows), len(self.factor_names)), np.int64)
        for idx, name in enumerate(self.factor_names):
            labels = self._row_labels(idx)
            seen = set(labels)
            if label_order is not None and name in label_order:
                order = tuple(str(x) for x in label_order[name])
                missing = sorted(seen - set(order))
                if missing:
                    raise DataError(
                        f"column {name!r} has labels {missing} absent from the "
                        "model's label list"
                    )
            else:
                order = tuple(sort_labels(seen))
            orders.append(order)
            level = {lab: k for k, lab in enumerate(order, start=1)}
            levels[:, idx] = np.fromiter(
                map(level.__getitem__, labels), np.int64, count=len(labels)
            )
        spec = DagSpec(tuple(len(o) for o in orders), tuple(orders))
        return spec, PathDataset(spec, _frozen(levels[self.index]), self.responses)

    def write_csv(self, dest) -> None:
        """Write the table as CSV: the factor columns, then the response in
        shortest exact decimal form."""
        _write_records(
            dest, [*self.factor_names, self.response_name], self.label_rows,
            self.index, self.responses,
        )


def sort_labels(labels) -> list[str]:
    """Deterministic label order: numeric when every label is a plain ASCII
    decimal number (the rule of :func:`_plain_float`) other than NaN,
    lexicographic otherwise.

    NaN compares neither less nor greater than anything, so a numeric sort
    would leave it wherever the input put it.
    """
    labels = [str(x) for x in labels]
    try:
        value = {s: _plain_float(s) for s in labels}
    except ValueError:
        return sorted(labels)
    if any(math.isnan(v) for v in value.values()):
        return sorted(labels)
    return sorted(labels, key=lambda s: (value[s], s))


def _open_text(source):
    if hasattr(source, "read"):
        return source, False
    return open(source, "r", encoding="utf-8-sig", newline=""), True


def _repeated(names) -> list[str]:
    return sorted({name for name in names if names.count(name) > 1})


def _plain_float(text: str) -> float:
    """``float(text)``, refusing (ValueError) the syntax only Python reads as
    a number: digit-group underscores and non-ASCII digits or spaces."""
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _parse_floats(texts: list[str]) -> np.ndarray:
    """Parse a list of decimal numbers by the rule of :func:`_plain_float`.
    The syntax check runs once on the whole list; the values are scanned
    one by one only to name the first offending one."""
    joined = "".join(texts)
    if "_" in joined or not joined.isascii():
        for text in texts:
            _plain_float(text)
    return np.fromiter(map(float, texts), float, count=len(texts))


def _refuse_first_bad_record(records, width: int, r_idx: int, first: int) -> None:
    """Raise for the first record, in file order, that is ragged or has a
    non-numeric or non-finite response. ``records[0]`` is data row
    ``first``: data rows are numbered over every record after the header,
    blank ones included."""
    for k, row in enumerate(records, start=first):
        if not row:
            continue
        if len(row) != width:
            raise DataError(f"data row {k}: {len(row)} fields, expected {width}")
        try:
            value = _plain_float(row[r_idx])
        except ValueError:
            raise DataError(
                f"data row {k}: non-numeric response {row[r_idx]!r}"
            ) from None
        if not math.isfinite(value):
            raise DataError(f"data row {k}: non-finite response {row[r_idx]!r}")


def load_table(
    source,
    factor_columns: list[str] | None = None,
    response_column: str | None = None,
) -> TabularDataset:
    """Read a CSV file into a :class:`TabularDataset`.

    By default the last column is the response and all other columns are
    factors. Blank records are skipped but counted when a refusal names a
    data row. Records are read in blocks of ``_BLOCK_RECORDS``; label rows
    that are equal after stripping surrounding spaces are one row.
    """
    fh, should_close = _open_text(source)
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file: no header row") from None
        header, factor_columns, response_column = _check_header(
            header, factor_columns, response_column
        )
        width = len(header)
        r_idx = header.index(response_column)
        labels_of = operator.itemgetter(*map(header.index, factor_columns))
        response_of = operator.itemgetter(r_idx)
        code = defaultdict(itertools.count().__next__)  # label row -> index
        indexes, responses = [], []
        first = 1  # data row number of the block's first record
        while block := list(itertools.islice(reader, _BLOCK_RECORDS)):
            records = list(filter(None, block))  # blank records dropped
            if records:
                if set(map(len, records)) != {width}:
                    _refuse_first_bad_record(block, width, r_idx, first)
                try:
                    values = _parse_floats(list(map(response_of, records)))
                except ValueError:
                    values = None
                if values is None or not np.isfinite(values).all():
                    _refuse_first_bad_record(block, width, r_idx, first)
                responses.append(values)
                indexes.append(np.fromiter(
                    map(code.__getitem__, map(labels_of, records)), np.int64,
                    count=len(records),
                ))
            first += len(block)
            del block, records  # free the block's lists before the next read
    finally:
        if should_close:
            fh.close()

    if not indexes:
        raise DataError("empty file: no data rows")
    # itemgetter of one column gives the label itself, not a 1-tuple
    raw_rows = list(code) if len(factor_columns) > 1 else [(lab,) for lab in code]
    rows: dict[tuple[str, ...], int] = {}  # stripped label row -> index
    merged = np.fromiter(
        (rows.setdefault(tuple(map(str.strip, row)), len(rows)) for row in raw_rows),
        np.int64, count=len(raw_rows),
    )
    return TabularDataset(
        factor_names=tuple(factor_columns),
        response_name=response_column,
        label_rows=tuple(rows),
        index=merged[np.concatenate(indexes)],
        responses=np.concatenate(responses),
    )


def _check_header(header, factor_columns, response_column):
    """The stripped header and the chosen factor and response columns,
    refusing repeated, missing or overlapping names."""
    if header:
        # a file-like source opened as plain UTF-8 keeps the byte-order mark
        header[0] = header[0].removeprefix("\ufeff")
    header = [h.strip() for h in header]
    if response_column is None:
        if not header:
            raise DataError("empty header row")
        response_column = header[-1]
    if response_column not in header:
        raise DataError(f"missing column {response_column!r}")
    if factor_columns is None:
        factor_columns = [h for h in header if h != response_column]
    if not factor_columns:
        raise DataError("no factor columns")
    for names in (header, list(factor_columns)):
        repeated = _repeated(names)
        if repeated:
            raise DataError(f"duplicate column names {repeated}")
    for name in factor_columns:
        if name not in header:
            raise DataError(f"missing column {name!r}")
        if name == response_column:
            raise DataError(f"column {name!r} cannot be both factor and response")
    return header, factor_columns, response_column


# ---------------------------------------------------------------------------
# discretization

@dataclass(frozen=True)
class DiscretizationRule:
    """Break points splitting one numeric column into ordered groups.

    Intervals are left-open and right-closed, except the first which is
    closed on both ends; a value equal to a break point goes to the lower
    group.
    """

    column: str
    groups: int
    breaks: tuple[float, ...]

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        object.__setattr__(self, "breaks", breaks)
        if len(breaks) != self.groups + 1:
            raise ModelError(
                f"{len(breaks)} break points for {self.groups} groups"
            )
        if not all(a < b for a, b in zip(breaks, breaks[1:])):
            raise ModelError("break points must be strictly increasing")

    def assign(self, values) -> np.ndarray:
        """1-based group index per value; values outside the break range are
        errors."""
        v = np.asarray(values, dtype=float)
        if not np.isfinite(v).all():
            raise DataError(f"column {self.column!r} has non-finite values")
        if (v < self.breaks[0]).any() or (v > self.breaks[-1]).any():
            bad = v[(v < self.breaks[0]) | (v > self.breaks[-1])][0]
            raise DataError(
                f"value {bad!r} outside the rule range "
                f"[{self.breaks[0]}, {self.breaks[-1]}] for column {self.column!r}"
            )
        return np.searchsorted(np.array(self.breaks[1:]), v, side="left") + 1


def quantile_discretize(values, groups: int, column: str = "") -> DiscretizationRule:
    """Equal-size grouping: breaks at the empirical quantiles k/groups using
    linear interpolation of order statistics (the "type 7" definition)."""
    if groups < 2:
        raise ModelError(f"need at least 2 groups, got {groups}")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DataError("values must be a nonempty 1-d collection")
    if not np.isfinite(v).all():
        raise DataError("values contain non-finite entries")
    if np.unique(v).size < groups:
        raise DataError(
            f"too few distinct values ({np.unique(v).size}) for {groups} groups"
        )
    probs = np.linspace(0.0, 1.0, groups + 1)
    breaks = np.quantile(v, probs, method="linear")
    if not np.all(np.diff(breaks) > 0):
        raise DataError(
            "quantile breaks not strictly increasing (too many tied values "
            f"for {groups} groups)"
        )
    return DiscretizationRule(column=column, groups=groups, breaks=tuple(breaks))


def apply_rules(
    table: TabularDataset, rules: dict[str, DiscretizationRule]
) -> TabularDataset:
    """Replace numeric columns by their group labels ("1".."q")."""
    columns = [table._row_labels(idx) for idx in range(len(table.factor_names))]
    for name, rule in rules.items():
        groups = rule.assign(table._row_values(name))
        columns[table.factor_names.index(name)] = list(map(str, groups.tolist()))
    return TabularDataset(
        factor_names=table.factor_names,
        response_name=table.response_name,
        label_rows=tuple(zip(*columns)),
        index=table.index,
        responses=table.responses,
    )


# ---------------------------------------------------------------------------
# diagnostics and dataset output

def markov_discrepancy(data: PathDataset) -> list[float]:
    """Largest absolute difference between one-step and two-step empirical
    transition probabilities, per interior column.

    Entry k (0-based) compares P(col k+3 | col k+2, col k+1) against
    P(col k+3 | col k+2) over observed histories. Purely diagnostic: a flat
    table with three or more factors need not follow the stepwise model, and
    this quantifies how far it is from doing so.
    """
    out = []
    for j in range(1, data.spec.c - 1):
        triple = _joint_counts(data, (j, j + 1, j + 2))
        pair = triple.sum(axis=0)
        history = triple.sum(axis=2)
        a, b = np.nonzero(history)  # the observed histories (a, b)
        cond_ab = triple[a, b] / history[a, b, None]
        cond_b = pair[b] / pair[b].sum(axis=1, keepdims=True)
        out.append(float(np.abs(cond_ab - cond_b).max(initial=0.0)))
    return out


class _Echo:
    """A file whose ``write`` hands its text back, so that ``writerow`` of a
    ``csv.writer`` on it returns the encoded record."""

    def write(self, text: str) -> str:
        return text


def _write_records(dest, header, label_rows, index, responses) -> None:
    """Write ``header``, then record k: the labels ``label_rows[index[k]]``
    followed by response k in shortest exact decimal form (``repr`` of a
    Python float), so a reload reproduces the responses bit for bit.

    Each distinct label row is quoted once, by ``csv.writer``, as the prefix
    of its records; the records are then written in blocks of
    ``_BLOCK_RECORDS``."""
    encode = csv.writer(_Echo(), lineterminator="\n").writerow
    # each prefix ends in the delimiter before an empty last field; that
    # field also keeps a row of one empty label from being written as '""'
    prefixes = [encode([*row, ""])[:-1] for row in label_rows]
    close = False
    if not hasattr(dest, "write"):
        dest = open(dest, "w", encoding="utf-8", newline="")
        close = True
    try:
        dest.write(encode(header))
        for start in range(0, len(index), _BLOCK_RECORDS):
            block = slice(start, start + _BLOCK_RECORDS)
            dest.write("\n".join(map(
                str.__add__,
                map(prefixes.__getitem__, index[block].tolist()),
                map(repr, responses[block].tolist()),
            )))
            dest.write("\n")
    finally:
        if close:
            dest.close()


def write_dataset_csv(dest, spec: DagSpec, data: PathDataset, factor_names=None) -> None:
    """Write a dataset as CSV: each level as its ``spec`` label, plus the
    response."""
    if factor_names is None:
        factor_names = [f"factor_{j}" for j in range(1, spec.c + 1)]
    paths, index = _path_cells(data.paths, data.spec.levels)
    label_rows = [
        [spec.label(j, i) for j, i in enumerate(path, start=1)]
        for path in paths.tolist()
    ]
    _write_records(dest, [*factor_names, "response"], label_rows, index, data.responses)
