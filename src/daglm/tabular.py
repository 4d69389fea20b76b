"""Tabular ingestion: CSV loading, label-to-level mapping, and quantile
discretization of numeric covariates.

Input files are comma-separated UTF-8 text with a mandatory header row and
``.`` as the decimal separator. Responses must be finite numbers in plain
ASCII decimal syntax. Tables are held by column: parsing the responses and
mapping labels to levels work on a whole column at a time, and writing a CSV
quotes each distinct row of labels once, then writes the records in blocks.
Factor labels are mapped to level indices by sorting the distinct labels of
each column: numerically when every label parses as a number other than
NaN, lexicographically otherwise. That ordering is part of the reported
output (level indices appear in pairwise reports), so it is fixed here
rather than left to file order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, ModelError
from .model import DagSpec, PathDataset, _joint_counts, _path_cells

#: records per block of CSV output: blocks bound the text held at once
_BLOCK_RECORDS = 2**14


@dataclass(frozen=True)
class TabularDataset:
    """Raw factor labels plus numeric responses, stored by column."""

    factor_names: tuple[str, ...]
    response_name: str
    columns: tuple[tuple[str, ...], ...]  # one tuple of labels per factor
    responses: np.ndarray

    def __post_init__(self):
        responses = np.array(self.responses, dtype=float)
        responses.setflags(write=False)
        object.__setattr__(self, "responses", responses)
        # tuple() of a tuple is the same object, so columns built by
        # load_table are not copied
        object.__setattr__(self, "columns", tuple(tuple(c) for c in self.columns))
        object.__setattr__(self, "factor_names", tuple(self.factor_names))
        if len(self.columns) != len(self.factor_names):
            raise DataError(
                f"{len(self.columns)} label columns for "
                f"{len(self.factor_names)} factor names"
            )
        if any(len(col) != len(responses) for col in self.columns):
            raise DataError("label columns and responses differ in length")

    @property
    def n(self) -> int:
        return len(self.responses)

    def column(self, name: str) -> list[str]:
        try:
            idx = self.factor_names.index(name)
        except ValueError:
            raise DataError(f"missing column {name!r}") from None
        return list(self.columns[idx])

    @cached_property
    def _numeric(self) -> dict[str, np.ndarray]:
        return {}

    def numeric_column(self, name: str) -> np.ndarray:
        """Column ``name`` parsed as floats: read-only, and parsed once per
        table however often it is asked for."""
        values = self._numeric.get(name)
        if values is None:
            try:
                values = _parse_floats(self.column(name))
            except ValueError as exc:
                raise DataError(f"column {name!r} is not numeric: {exc}") from None
            values.setflags(write=False)
            self._numeric[name] = values
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
        paths = np.empty((self.n, len(self.columns)), dtype=np.int64)
        for idx, (name, col) in enumerate(zip(self.factor_names, self.columns)):
            seen = set(col)
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
            paths[:, idx] = np.fromiter(
                map(level.__getitem__, col), np.int64, count=self.n
            )
        spec = DagSpec(tuple(len(o) for o in orders), tuple(orders))
        return spec, PathDataset(spec, paths, self.responses)

    def write_csv(self, dest) -> None:
        """Write the table as CSV: the factor columns, then the response in
        shortest exact decimal form."""
        code: dict[tuple[str, ...], int] = {}  # distinct label row -> index
        index = np.fromiter(
            (code.setdefault(row, len(code)) for row in zip(*self.columns)),
            np.int64, count=self.n,
        )
        _write_records(
            dest, [*self.factor_names, self.response_name], list(code), index,
            self.responses,
        )


def sort_labels(labels) -> list[str]:
    """Deterministic label order: numeric when every label is a number other
    than NaN, lexicographic otherwise.

    NaN compares neither less nor greater than anything, so a numeric sort
    would leave it wherever the input put it.
    """
    labels = [str(x) for x in labels]
    try:
        value = {s: float(s) for s in labels}
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


def _parse_floats(texts) -> np.ndarray:
    """Parse a column of decimal numbers by the rule of :func:`_plain_float`.
    The syntax check runs once on the whole column; the values are scanned
    one by one only to name the first offending one."""
    joined = "".join(texts)
    if "_" in joined or not joined.isascii():
        for text in texts:
            _plain_float(text)
    return np.array(list(map(float, texts)))


def _refuse_first_bad_record(records, width: int, r_idx: int) -> None:
    """Raise for the first record, in file order, that is ragged or has a
    non-numeric or non-finite response. Data rows are numbered over every
    record after the header, blank ones included."""
    for k, row in enumerate(records, start=1):
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
    data row.
    """
    fh, should_close = _open_text(source)
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file: no header row") from None
        records = list(reader)
    finally:
        if should_close:
            fh.close()

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

    width = len(header)
    r_idx = header.index(response_column)
    if set(map(len, records)) - {0, width}:
        _refuse_first_bad_record(records, width, r_idx)
    columns = list(zip(*filter(None, records)))  # blank records dropped
    if not columns:
        raise DataError("empty file: no data rows")
    try:
        responses = _parse_floats(columns[r_idx])
    except ValueError:
        responses = None
    if responses is None or not np.isfinite(responses).all():
        _refuse_first_bad_record(records, width, r_idx)
    del records  # only the refusals need the row lists; free them now
    return TabularDataset(
        factor_names=tuple(factor_columns),
        response_name=response_column,
        columns=tuple(
            tuple(map(str.strip, columns[header.index(name)]))
            for name in factor_columns
        ),
        responses=responses,
    )


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
    columns = dict(zip(table.factor_names, table.columns))
    for name, rule in rules.items():
        groups = rule.assign(table.numeric_column(name))
        columns[name] = tuple(map(str, groups.tolist()))
    return TabularDataset(
        factor_names=table.factor_names,
        response_name=table.response_name,
        columns=tuple(columns.values()),
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
